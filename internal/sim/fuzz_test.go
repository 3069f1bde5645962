package sim

import (
	"testing"
)

// FuzzHeap drives the 4-ary heap against the sorted-slice reference queue
// with an operation stream decoded from fuzz data. Each byte is one
// operation: schedule with a delay derived from the byte (0x00–0x7f),
// schedule at the current instant behind whatever is already pending there
// (0x80–0xbf), or step (0xc0–0xff). The two implementations must agree on
// every observable at every step — fired identity, clock, pending count —
// exactly as in TestHeapMatchesReferenceQueue, but with the interleaving
// chosen by the fuzzer instead of a fixed RNG.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x40, 0x80, 0xc0, 0xff})
	// Schedule a burst at colliding times, then drain: exercises FIFO
	// sequence ordering among equal timestamps.
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0xf0, 0xf0, 0xf0, 0xf0})
	// Interleave future schedules with same-instant ones between steps.
	f.Add([]byte{0x05, 0x15, 0x85, 0x25, 0x95, 0xf1, 0x35, 0x8f})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		ref := &refQueue{}
		nextID := 0
		seq := uint64(0)
		firedID := -1

		step := func(op int) {
			firedID = -1
			stepped := s.Step()
			want, ok := ref.pop()
			if stepped != ok {
				t.Fatalf("op %d: Step = %v, reference nonempty = %v", op, stepped, ok)
			}
			if !stepped {
				return
			}
			if firedID != want.id {
				t.Fatalf("op %d: fired event %d, reference says %d", op, firedID, want.id)
			}
			if s.Now() != want.at {
				t.Fatalf("op %d: clock %v, reference time %v", op, s.Now(), want.at)
			}
		}

		for op, b := range data {
			if b >= 0xc0 {
				step(op)
			} else {
				delay := 0.0 // 0x80–0xbf: the current instant
				if b < 0x80 {
					delay = float64(b&0x7f) * 0.25
				}
				id := nextID
				nextID++
				s.Schedule(delay, func() { firedID = id })
				seq++
				ref.push(s.Now()+delay, seq, id)
			}
			if s.Pending() != len(ref.entries) {
				t.Fatalf("op %d: Pending = %d, reference holds %d", op, s.Pending(), len(ref.entries))
			}
		}

		// Drain both queues to the end: survivors must agree too.
		for s.Pending() > 0 || len(ref.entries) > 0 {
			step(len(data))
		}
	})
}
