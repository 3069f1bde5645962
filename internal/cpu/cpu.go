// Package cpu models a site's processor as a single FCFS server with a MIPS
// rating. Transactions submit CPU bursts measured in instructions; the burst
// service time is deterministic (pathlength / speed), matching §4.1 of the
// paper ("the CPU service times correspond to the time to execute the
// specific instruction pathlengths ... and are not exponentially
// distributed"). A transaction releases the CPU between bursts — at every
// lock wait, I/O, and communication — which the engine expresses by
// submitting each burst separately.
package cpu

import (
	"fmt"

	"hybriddb/internal/exec"
)

// burst is one queued CPU burst, held by value in the server's queue.
type burst struct {
	instructions float64
	done         func()
}

// Server is a single FCFS processor. It runs on any exec.Scheduler — the
// discrete-event simulator in a simulation, the wall-clock loop in the live
// networked engine (where a burst's deterministic service time is emulated
// by a real timer) — which is what lets both engines share one queueing
// substrate.
type Server struct {
	disp exec.Dispatch
	mips float64

	// queue holds the waiting bursts by value; busy marks a burst in
	// service and done is its completion callback. onFinish is the single
	// completion closure shared by every dispatch (it reads done), so the
	// steady-state Submit/dispatch/finish cycle performs no allocations.
	queue    []burst
	busy     bool
	done     func()
	onFinish func()

	// accounting
	busySince float64
	busyTime  float64
	completed uint64
}

// NewServer returns a processor of the given speed (millions of instructions
// per second) attached to the scheduler's clock.
func NewServer(s exec.Scheduler, mips float64) *Server {
	if mips <= 0 {
		panic(fmt.Sprintf("cpu: non-positive MIPS %v", mips))
	}
	if s == nil {
		panic("cpu: nil scheduler")
	}
	c := &Server{disp: exec.NewDispatch(s), mips: mips}
	c.onFinish = c.finish
	return c
}

// Rebind moves the server onto a different scheduler clock. Only an idle
// server can move: a burst in service has a completion event scheduled on
// the old clock that cannot follow. The sharded engine uses this at run
// start, before any work exists, to assign each site's servers to its shard.
func (c *Server) Rebind(s exec.Scheduler) {
	if s == nil {
		panic("cpu: nil scheduler")
	}
	if c.busy || len(c.queue) > 0 {
		panic("cpu: rebind of a busy server")
	}
	c.disp = exec.NewDispatch(s)
}

// ServiceTime returns the time to execute the given number of instructions
// with no queueing.
func (c *Server) ServiceTime(instructions float64) float64 {
	return instructions / (c.mips * 1e6)
}

// Submit enqueues a burst of the given number of instructions; done runs when
// the burst completes. Zero-instruction bursts complete through the queue
// like any other (they still model a dispatch).
func (c *Server) Submit(instructions float64, done func()) {
	if instructions < 0 {
		panic(fmt.Sprintf("cpu: negative burst %v", instructions))
	}
	if done == nil {
		panic("cpu: nil completion callback")
	}
	c.queue = append(c.queue, burst{instructions: instructions, done: done})
	if !c.busy {
		c.dispatch()
	}
}

// dispatch starts the burst at the head of the queue, if any. The queue is
// shifted down by copy rather than advanced by a head index, so its backing
// array never creeps forward and is reused in place.
func (c *Server) dispatch() {
	if len(c.queue) == 0 {
		return
	}
	b := c.queue[0]
	n := copy(c.queue, c.queue[1:])
	c.queue[n] = burst{}
	c.queue = c.queue[:n]
	c.busy = true
	c.done = b.done
	c.busySince = c.disp.Now()
	c.disp.Schedule(c.ServiceTime(b.instructions), c.onFinish)
}

func (c *Server) finish() {
	c.busyTime += c.disp.Now() - c.busySince
	c.completed++
	c.busy = false
	done := c.done
	c.done = nil
	// Dispatch the next burst before running the callback so that
	// queue-length observations made inside the callback see a consistent
	// state.
	c.dispatch()
	done()
}

// QueueLength returns the number of bursts at the processor, including the
// one in service. This is the q used by the queue-length routing strategies.
func (c *Server) QueueLength() int {
	n := len(c.queue)
	if c.busy {
		n++
	}
	return n
}

// BusyTime returns the cumulative time the processor has been serving bursts
// up to the current simulated instant (including the partially completed
// burst in service).
func (c *Server) BusyTime() float64 {
	t := c.busyTime
	if c.busy {
		t += c.disp.Now() - c.busySince
	}
	return t
}

// Utilization returns BusyTime divided by elapsed simulated time (0 at t=0).
func (c *Server) Utilization() float64 {
	now := c.disp.Now()
	if now == 0 {
		return 0
	}
	return c.BusyTime() / now
}

// Completed returns the number of bursts finished.
func (c *Server) Completed() uint64 { return c.completed }
