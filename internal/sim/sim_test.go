package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		s.Schedule(d, func() { order = append(order, d) })
	}
	s.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("executed %d events, want 5", len(order))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var seen []float64
	s.Schedule(2, func() { seen = append(seen, s.Now()) })
	s.Schedule(7, func() { seen = append(seen, s.Now()) })
	s.Run()
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 7 {
		t.Fatalf("clock values %v, want [2 7]", seen)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(1, func() {
		s.Schedule(2, func() { at = s.Now() })
	})
	s.Run()
	if at != 3 {
		t.Fatalf("nested event fired at %v, want 3", at)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	fired := make(map[float64]bool)
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		s.Schedule(d, func() { fired[d] = true })
	}
	s.RunUntil(3)
	if !fired[1] || !fired[2] || !fired[3] {
		t.Errorf("events at or before horizon did not fire: %v", fired)
	}
	if fired[4] || fired[5] {
		t.Errorf("events after horizon fired: %v", fired)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v after RunUntil(3)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	s := New()
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	s.ScheduleAt(1, func() {})
}

func TestNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil action did not panic")
		}
	}()
	New().Schedule(1, nil)
}

// TestQuickHeapOrdering checks, against a reference sort, that an arbitrary
// batch of delays always fires in nondecreasing time order with stable
// FIFO tie-breaking.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		type fireRec struct {
			at  float64
			seq int
		}
		var fired []fireRec
		for i, r := range raw {
			d := float64(r % 100)
			i := i
			d2 := d
			s.Schedule(d2, func() { fired = append(fired, fireRec{at: d2, seq: i}) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Schedule(float64(i%97), func() {})
	}
	b.ResetTimer()
	s.Run()
}
