package cpu

import (
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/sim"
)

// BenchmarkSubmitFinish measures the full burst lifecycle — enqueue,
// dispatch, simulated completion — which the engine drives for every
// database call, I/O, and message handler. With value bursts and the shared
// finish closure this cycle performs no allocations in steady state.
func BenchmarkSubmitFinish(b *testing.B) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 10)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(100, nop)
		s.Run()
	}
}

// BenchmarkSubmitQueued measures enqueueing behind a busy server, the
// contended half of the dispatch path.
func BenchmarkSubmitQueued(b *testing.B) {
	s := sim.New()
	c := NewServer(exec.Sim(s), 10)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(100, nop) // goes into service
		c.Submit(100, nop) // queues
		s.Run()
	}
}
