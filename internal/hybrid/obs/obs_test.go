package obs

import "testing"

// detailFunc is a Func that also opts into the detail stream.
type detailFunc struct{ f func(Event) }

func (d detailFunc) OnEvent(e Event)  { d.f(e) }
func (d detailFunc) WantDetail() bool { return true }

func TestBusZeroValueDropsEverything(t *testing.T) {
	var b Bus
	if b.HasDetail() {
		t.Fatal("empty bus reports detail observers")
	}
	// Must not panic.
	b.Emit(Event{Kind: TxnArrive})
	b.Emit(Event{Kind: LockRequest})
	b.Subscribe(nil)
	b.Emit(Event{Kind: TxnArrive})
}

func TestBusFanOut(t *testing.T) {
	var b Bus
	var got1, got2 []Kind
	b.Subscribe(Func(func(e Event) { got1 = append(got1, e.Kind) }))
	b.Subscribe(Func(func(e Event) { got2 = append(got2, e.Kind) }))
	b.Emit(Event{Kind: TxnArrive})
	b.Emit(Event{Kind: TxnReply})
	want := []Kind{TxnArrive, TxnReply}
	for _, got := range [][]Kind{got1, got2} {
		if len(got) != len(want) {
			t.Fatalf("observer saw %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("observer saw %v, want %v", got, want)
			}
		}
	}
}

func TestDetailRouting(t *testing.T) {
	var b Bus
	var plain, detail int
	b.Subscribe(Func(func(Event) { plain++ }))
	if b.HasDetail() {
		t.Fatal("plain observer counted as detail observer")
	}
	b.Subscribe(detailFunc{func(Event) { detail++ }})
	if !b.HasDetail() {
		t.Fatal("detail observer not detected")
	}
	b.Emit(Event{Kind: TxnArrive})   // both
	b.Emit(Event{Kind: LockRequest}) // detail only
	if plain != 1 {
		t.Errorf("plain observer got %d events, want 1", plain)
	}
	if detail != 2 {
		t.Errorf("detail observer got %d events, want 2", detail)
	}
}

func TestKindString(t *testing.T) {
	for k := MeasureStart; k < NumKinds; k++ {
		if s := k.String(); s == "" || s == "Kind(?)" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, k := range []Kind{0, NumKinds, 200} {
		if k.String() != "Kind(?)" {
			t.Errorf("unknown kind %d = %q", k, k.String())
		}
	}
	if SelfCheck.Detail() || !LockRequest.Detail() || !UpdateAcked.Detail() || NumKinds.Detail() {
		t.Error("Detail misclassifies the kind groups")
	}
}

// TestKindStrings checks that no two kinds share a name, so a rendered
// event or a ring dump always says which step it was.
func TestKindStrings(t *testing.T) {
	seen := make(map[string]Kind)
	for k := MeasureStart; k < NumKinds; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}
