package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hybriddb/internal/lock"
)

// Annotation renders the event's numeric payload as the short text a
// protocol dump or a span argument shows ("3 elements", "attempt 2", an
// abort cause); it is empty for kinds whose payload needs no words.
func (e Event) Annotation() string {
	n := strconv.Itoa(int(e.Value))
	switch e.Kind {
	case TxnArrive:
		class, route := "class A", " -> local"
		if e.ClassB {
			class = "class B"
		}
		if e.Shipped {
			route = " -> ship"
		}
		return class + route
	case LockRequest:
		return lock.Mode(e.Value).String()
	case Rerun:
		return "attempt " + n
	case AuthRequest, UpdatesPropagated:
		return n + " elements"
	case AuthSeized:
		return n + " victims"
	case AuthNack:
		return "in-flight updates"
	case AbortLocalSeized:
		return "seized by central commit"
	case AbortCentralNACK:
		return "authentication NACK"
	case AbortCentralInval:
		if e.Aux != 0 {
			return "invalidated during authentication"
		}
		return "invalidated by async update"
	case UpdateApplied:
		return n + " elements from site " + strconv.Itoa(int(e.Aux))
	}
	return ""
}

// String renders the event on one line.
func (e Event) String() string {
	site := "central"
	if e.Site >= 0 {
		site = fmt.Sprintf("site %d", e.Site)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6f  %-22s %-8s", e.At, e.Kind, site)
	if e.Txn != 0 {
		fmt.Fprintf(&b, " txn %-6d", e.Txn)
	}
	if e.Elem != 0 || e.Kind == LockRequest || e.Kind == LockGrant || e.Kind == AuthSeized {
		fmt.Fprintf(&b, " elem %-6d", e.Elem)
	}
	if a := e.Annotation(); a != "" {
		b.WriteString(" " + a)
	}
	return b.String()
}

// Ring is a detail observer keeping the most recent events in a ring
// buffer, which keeps protocol dumps affordable on arbitrarily long runs.
type Ring struct {
	buf  []Event
	next int
	// filter, when non-nil, drops events for which it returns false.
	filter func(Event) bool
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: non-positive ring capacity %d", capacity))
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// WantDetail implements DetailObserver.
func (r *Ring) WantDetail() bool { return true }

// FilterTxn keeps only events of the given transaction.
func (r *Ring) FilterTxn(txn int64) {
	r.filter = func(e Event) bool { return e.Txn == txn }
}

// FilterElem keeps only events touching the given element.
func (r *Ring) FilterElem(elem uint32) {
	r.filter = func(e Event) bool { return e.Elem == elem }
}

// OnEvent implements Observer.
func (r *Ring) OnEvent(e Event) {
	if r.filter != nil && !r.filter(e) {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Events returns the retained events in record order (a copy).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Dump writes the retained events, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
