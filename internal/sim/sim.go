// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is a float64 number of seconds. Events scheduled for the same instant
// fire in the order they were scheduled (FIFO tie-break), which keeps
// simulations reproducible.
//
// The pending set is a 4-ary min-heap of (at, seq, action) entries with
// hand-inlined sift-up/sift-down (no container/heap, no interface boxing).
// The ordering key sits inline in each entry, so sifts walk the contiguous
// heap array and the four children of a node share a cache line. Scheduling
// returns no handle: nothing in the protocol cancels an event, so the kernel
// keeps no per-event storage beyond its heap entry and is allocation-free
// once the heap has grown to its high-water size.
package sim

import (
	"fmt"
)

// Time is a simulated instant, in seconds since the start of the run.
type Time = float64

// heapEnt is one pending event in the 4-ary min-heap, ordered by (at, seq).
// seq is unique, giving a strict total order and exact FIFO tie-breaking.
type heapEnt struct {
	at     Time
	seq    uint64
	action func()
}

// Simulator owns the event list and the simulated clock.
type Simulator struct {
	now  Time
	seq  uint64
	heap []heapEnt // 4-ary min-heap ordered by (at, seq)
}

// New returns a Simulator with the clock at zero and an empty event list.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return len(s.heap) }

// Schedule runs action after delay seconds of simulated time. A negative
// delay panics: it would mean travelling into the past, which is always a
// logic error in the caller.
func (s *Simulator) Schedule(delay Time, action func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, action)
}

// ScheduleAt runs action at absolute time at. Scheduling before the current
// time panics.
func (s *Simulator) ScheduleAt(at Time, action func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if action == nil {
		panic("sim: nil action")
	}
	s.seq++
	s.heap = append(s.heap, heapEnt{at: at, seq: s.seq, action: action})
	s.siftUp(len(s.heap) - 1)
}

// Step executes the single next event, if any, and reports whether one ran.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	top := s.heap[0]
	s.now = top.at
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = heapEnt{} // drop the action reference held past the length
	s.heap = s.heap[:n]
	if n > 0 {
		s.heap[0] = last
		s.siftDown(0)
	}
	top.action()
	return true
}

// RunUntil executes events in time order until the clock would pass horizon
// or the event list empties, then moves the clock up to horizon if it is
// behind it; events at exactly horizon run.
func (s *Simulator) RunUntil(horizon Time) {
	for len(s.heap) > 0 && s.heap[0].at <= horizon {
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Peek returns the time of the earliest pending event, or false when the
// event list is empty. The sharded synchronizer (Group) uses it to compute
// the conservative execution bound of each round.
func (s *Simulator) Peek() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// RunBefore executes events strictly earlier than bound, in time order,
// until none remain below it. Unlike RunUntil the clock is not advanced to
// the bound: it stays at the last executed event, so a subsequent AdvanceTo
// or RunBefore with a larger bound continues cleanly. This is the per-round
// shard execution primitive of the Group synchronizer.
func (s *Simulator) RunBefore(bound Time) {
	for len(s.heap) > 0 && s.heap[0].at < bound {
		s.Step()
	}
}

// AdvanceTo moves the clock forward to t without executing anything. It
// panics if t is in the past or an event earlier than t is still pending —
// advancing over a pending event would execute it at the wrong time later.
// The Group synchronizer uses it to align every shard's clock on a barrier
// instant so that clock-dependent observations (CPU busy-time integrals,
// queue samples) read identically to a single-queue run.
func (s *Simulator) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: advance to %v before now %v", t, s.now))
	}
	if len(s.heap) > 0 && s.heap[0].at < t {
		panic(fmt.Sprintf("sim: advance to %v over pending event at %v", t, s.heap[0].at))
	}
	s.now = t
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// less orders heap entries by (at, seq): seq is unique, giving a strict
// total order and therefore exact FIFO tie-breaking regardless of heap shape.
func less(a, b *heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// siftUp restores heap order upward from position i. The element is lifted
// as a hole while ancestors shift down, so each level costs one compare and
// at most one move.
func (s *Simulator) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if less(&h[p], &e) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown restores heap order downward from position i, picking the least
// of up to four children per level. A 4-ary heap halves the tree depth of a
// binary heap, and with the ordering keys inline in the entries the four
// children sit in adjacent array words — every level is one or two cache
// lines of the heap itself.
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := (i << 2) + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if less(&h[k], &h[m]) {
				m = k
			}
		}
		if less(&e, &h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
