package obs

import (
	"strings"
	"testing"
	"testing/quick"

	"hybriddb/internal/lock"
)

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, Kind: LockGrant, Txn: 42, Site: 3, Elem: 7}
	s := e.String()
	for _, want := range []string{"lock-granted", "site 3", "txn 42", "elem 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	central := Event{At: 2, Kind: CentralCommit, Txn: 1, Site: -1}
	if !strings.Contains(central.String(), "central") {
		t.Errorf("central event string %q", central.String())
	}
}

// TestAnnotation pins the text each numeric payload renders to.
func TestAnnotation(t *testing.T) {
	for _, c := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: TxnArrive}, "class A -> local"},
		{Event{Kind: TxnArrive, Shipped: true}, "class A -> ship"},
		{Event{Kind: TxnArrive, ClassB: true, Shipped: true}, "class B -> ship"},
		{Event{Kind: LockRequest, Value: float64(lock.Exclusive)}, "X"},
		{Event{Kind: Rerun, Value: 2}, "attempt 2"},
		{Event{Kind: AuthRequest, Value: 3}, "3 elements"},
		{Event{Kind: UpdatesPropagated, Value: 4}, "4 elements"},
		{Event{Kind: AuthSeized, Value: 1}, "1 victims"},
		{Event{Kind: AuthNack}, "in-flight updates"},
		{Event{Kind: AbortLocalSeized}, "seized by central commit"},
		{Event{Kind: AbortCentralNACK}, "authentication NACK"},
		{Event{Kind: AbortCentralInval}, "invalidated by async update"},
		{Event{Kind: AbortCentralInval, Aux: 1}, "invalidated during authentication"},
		{Event{Kind: UpdateApplied, Value: 5, Aux: 2}, "5 elements from site 2"},
		{Event{Kind: LockGrant}, ""},
	} {
		if got := c.ev.Annotation(); got != c.want {
			t.Errorf("%v annotation = %q, want %q", c.ev.Kind, got, c.want)
		}
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.OnEvent(Event{Txn: int64(i)})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, want := range []int64{3, 4, 5} {
		if events[i].Txn != want {
			t.Fatalf("events = %v, want txns 3,4,5", events)
		}
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := NewRing(10)
	r.OnEvent(Event{Txn: 1})
	r.OnEvent(Event{Txn: 2})
	events := r.Events()
	if len(events) != 2 || events[0].Txn != 1 || events[1].Txn != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestRingFilterTxn(t *testing.T) {
	r := NewRing(10)
	r.FilterTxn(7)
	r.OnEvent(Event{Txn: 7, Kind: TxnArrive})
	r.OnEvent(Event{Txn: 8, Kind: TxnArrive})
	r.OnEvent(Event{Txn: 7, Kind: TxnLocalCommit})
	if got := len(r.Events()); got != 2 {
		t.Fatalf("filtered events = %d, want 2", got)
	}
}

func TestRingFilterElem(t *testing.T) {
	r := NewRing(10)
	r.FilterElem(100)
	r.OnEvent(Event{Elem: 100})
	r.OnEvent(Event{Elem: 200})
	if got := len(r.Events()); got != 1 {
		t.Fatalf("filtered events = %d, want 1", got)
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(4)
	r.OnEvent(Event{At: 1, Kind: TxnArrive, Txn: 9, Site: 0})
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "txn-arrive") {
		t.Errorf("dump output %q", sb.String())
	}
}

func TestRingInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewRing(0)
}

// TestRingIsDetailObserver subscribes a ring on a bus: it receives the
// lifecycle and the detail kinds.
func TestRingIsDetailObserver(t *testing.T) {
	var b Bus
	r := NewRing(8)
	b.Subscribe(r)
	if !b.HasDetail() {
		t.Fatal("ring did not subscribe to the detail kinds")
	}
	b.Emit(Event{Kind: TxnArrive, Txn: 1})
	b.Emit(Event{Kind: LockRequest, Txn: 1, Elem: 4})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != TxnArrive || evs[1].Kind != LockRequest || evs[1].Elem != 4 {
		t.Errorf("ring holds %v", evs)
	}
}

// TestQuickRingOrder verifies the ring always returns the most recent
// min(n, capacity) events in record order.
func TestQuickRingOrder(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRing(capacity)
		total := int(n % 64)
		for i := 0; i < total; i++ {
			r.OnEvent(Event{Txn: int64(i)})
		}
		events := r.Events()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(events) != want {
			return false
		}
		for i, e := range events {
			if e.Txn != int64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
