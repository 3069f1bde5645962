package cpu

import (
	"math"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/sim"
)

func TestServiceTime(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 15) // 15 MIPS
	got := c.ServiceTime(300_000)
	want := 0.02 // 300K instructions at 15M instr/s
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

func TestSingleBurstCompletes(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var doneAt float64 = -1
	c.Submit(1e6, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 1.0 {
		t.Fatalf("burst completed at %v, want 1.0", doneAt)
	}
	if c.Completed() != 1 {
		t.Fatalf("completed = %d", c.Completed())
	}
}

func TestFCFSOrderAndTiming(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		c.Submit(1e6, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	want := []float64{1, 2, 3}
	if len(finish) != 3 {
		t.Fatalf("finished %d bursts", len(finish))
	}
	for i := range want {
		if math.Abs(finish[i]-want[i]) > 1e-9 {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestQueueLength(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	if c.QueueLength() != 0 {
		t.Fatal("idle queue not 0")
	}
	c.Submit(1e6, func() {})
	c.Submit(1e6, func() {})
	c.Submit(1e6, func() {})
	if c.QueueLength() != 3 {
		t.Fatalf("queue length = %d, want 3 (1 running + 2 waiting)", c.QueueLength())
	}
	s.Run()
	if c.QueueLength() != 0 {
		t.Fatalf("queue length after drain = %d", c.QueueLength())
	}
}

func TestQueueLengthInsideCallback(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	var observed []int
	for i := 0; i < 3; i++ {
		c.Submit(1e6, func() { observed = append(observed, c.QueueLength()) })
	}
	s.Run()
	// When a burst's callback runs, the finished burst is gone and the next
	// one is already in service: lengths 2, 1, 0.
	want := []int{2, 1, 0}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("observed %v, want %v", observed, want)
		}
	}
}

func TestZeroInstructionBurst(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	ran := false
	c.Submit(0, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("zero burst never completed")
	}
}

// TestSubmitSteadyStateZeroAllocs pins the server's allocation contract:
// once the queue has grown to its working size, a Submit→finish cycle —
// bursts that go straight into service and bursts that wait behind them —
// performs no heap allocations.
func TestSubmitSteadyStateZeroAllocs(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 10)
	nop := func() {}
	cycles := 0
	cycle := func() {
		cycles++
		c.Submit(100, nop) // direct: the idle server starts it at once
		s.Run()
		for i := 0; i < 8; i++ {
			c.Submit(100, nop) // the first runs, the rest queue behind it
		}
		s.Run()
	}
	cycle() // grow the queue and the event heap to capacity
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("steady-state Submit/finish allocated %v times per cycle, want 0", got)
	}
	if want := uint64(9 * cycles); c.Completed() != want {
		t.Fatalf("completed = %d, want %d", c.Completed(), want)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	c.Submit(1e6, func() {}) // busy [0,1]
	s.Run()
	s.RunUntil(4) // idle [1,4]
	if got := c.BusyTime(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("BusyTime = %v, want 1", got)
	}
	if got := c.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
}

func TestBusyTimeIncludesPartialBurst(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 1)
	c.Submit(10e6, func() {}) // 10 s burst
	s.Schedule(4, func() {
		if got := c.BusyTime(); math.Abs(got-4) > 1e-9 {
			t.Errorf("partial BusyTime = %v, want 4", got)
		}
		if c.QueueLength() != 1 {
			t.Error("server not busy mid-burst")
		}
	})
	s.Run()
}

func TestSubmitFromCallbackChains(t *testing.T) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 2)
	var doneAt float64
	c.Submit(1e6, func() {
		c.Submit(1e6, func() { doneAt = s.Now() })
	})
	s.Run()
	if math.Abs(doneAt-1.0) > 1e-9 { // two 0.5 s bursts back to back
		t.Fatalf("chained completion at %v, want 1.0", doneAt)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewServer(exec.Sim(sim.New()), 0) },
		func() { NewServer(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNegativeBurstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative burst did not panic")
		}
	}()
	NewServer(exec.Sim(sim.New()), 1).Submit(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewServer(exec.Sim(sim.New()), 1).Submit(1, nil)
}
