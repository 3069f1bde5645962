package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refQueue is a naive sorted-slice reference implementation of the event
// queue: an ordering oracle for the 4-ary heap. Operations are O(n) but
// trivially correct — entries are kept sorted by (at, seq) at all times.
type refQueue struct {
	entries []refEntry
}

type refEntry struct {
	at  float64
	seq uint64
	id  int // test-assigned identity
}

func (q *refQueue) push(at float64, seq uint64, id int) {
	i := sort.Search(len(q.entries), func(i int) bool {
		e := q.entries[i]
		return e.at > at || (e.at == at && e.seq > seq)
	})
	q.entries = append(q.entries, refEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = refEntry{at: at, seq: seq, id: id}
}

func (q *refQueue) pop() (refEntry, bool) {
	if len(q.entries) == 0 {
		return refEntry{}, false
	}
	e := q.entries[0]
	q.entries = q.entries[1:]
	return e, true
}

// TestHeapMatchesReferenceQueue drives long random interleavings of
// Schedule and Step against the reference queue and demands exact agreement
// at every step: same Pending count, same fired identity, same fired time.
// A share of the schedules land on the current instant, behind events
// already pending there, so same-instant FIFO ties are exercised at every
// heap depth. This is the ordering oracle for the 4-ary heap — any
// divergence in the sift logic shows up as a mismatch.
func TestHeapMatchesReferenceQueue(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		s := New()
		ref := &refQueue{}

		nextID := 0
		seq := uint64(0)
		firedID := -1
		makeAction := func(id int) func() { return func() { firedID = id } }
		schedule := func(delay float64) {
			id := nextID
			nextID++
			s.Schedule(delay, makeAction(id))
			seq++ // mirrors the simulator's FIFO sequence numbers exactly
			ref.push(s.Now()+delay, seq, id)
		}

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				schedule(float64(rng.Intn(50)) * 0.25)
			case r < 7: // schedule at the current instant
				schedule(0)
			default: // step
				firedID = -1
				stepped := s.Step()
				want, ok := ref.pop()
				if stepped != ok {
					t.Fatalf("trial %d op %d: Step = %v, reference nonempty = %v", trial, op, stepped, ok)
				}
				if !stepped {
					continue
				}
				if firedID != want.id {
					t.Fatalf("trial %d op %d: fired event %d, reference says %d", trial, op, firedID, want.id)
				}
				if s.Now() != want.at {
					t.Fatalf("trial %d op %d: clock %v, reference time %v", trial, op, s.Now(), want.at)
				}
			}
			if s.Pending() != len(ref.entries) {
				t.Fatalf("trial %d op %d: Pending = %d, reference holds %d", trial, op, s.Pending(), len(ref.entries))
			}
		}

		// Drain: the survivors must come out in exact reference order.
		for {
			firedID = -1
			stepped := s.Step()
			want, ok := ref.pop()
			if stepped != ok {
				t.Fatalf("trial %d drain: Step = %v, reference nonempty = %v", trial, stepped, ok)
			}
			if !stepped {
				break
			}
			if firedID != want.id {
				t.Fatalf("trial %d drain: fired %d, reference says %d", trial, firedID, want.id)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events pending after drain", trial, s.Pending())
		}
	}
}

// TestSteadyStateZeroAllocs pins the headline property: once the heap has
// grown to the working-set size, Schedule/Run churn performs no heap
// allocations.
func TestSteadyStateZeroAllocs(t *testing.T) {
	s := New()
	action := func() {}
	// Grow the heap past the working set.
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i%7), action)
	}
	s.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.Schedule(float64(i%5), action)
		}
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule/Run allocated %.1f times per round, want 0", avg)
	}
}
