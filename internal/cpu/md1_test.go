package cpu

import (
	"math"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/rng"
	"hybriddb/internal/sim"
	"hybriddb/internal/stats"
)

// TestCPUServerMatchesMD1 validates the simulator's CPU substrate against
// theory: Poisson arrivals of fixed-length bursts form an M/D/1 queue, so
// the simulated mean sojourn time must match Pollaczek–Khinchine,
// W = 1/mu + rho/(2 mu (1-rho)).
func TestCPUServerMatchesMD1(t *testing.T) {
	const (
		mips         = 1.0
		instructions = 100_000 // 0.1 s deterministic service
		lambda       = 7.0     // rho = 0.7
		horizon      = 20_000.0
	)
	s := sim.New()
	server := NewServer(exec.Sim(s), mips)
	src := rng.New(99)
	var sojourn stats.Welford

	var arrive func()
	arrive = func() {
		gap := src.Exp(1 / lambda)
		if s.Now()+gap > horizon {
			return
		}
		s.Schedule(gap, func() {
			start := s.Now()
			server.Submit(instructions, func() {
				sojourn.Add(s.Now() - start)
			})
			arrive()
		})
	}
	arrive()
	s.Run()

	mu := 1 / server.ServiceTime(instructions) // 10 per second
	rho := lambda / mu
	want := 1/mu + rho/(2*mu*(1-rho))
	got := sojourn.Mean()
	if sojourn.Count() < 100_000 {
		t.Fatalf("only %d samples", sojourn.Count())
	}
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("simulated M/D/1 sojourn %v, theory %v (rel err %.3f)",
			got, want, math.Abs(got-want)/want)
	}
}

// TestCPUServerUtilizationMatchesOfferedLoad cross-checks the server's busy
// time accounting against rho = lambda/mu.
func TestCPUServerUtilizationMatchesOfferedLoad(t *testing.T) {
	s := sim.New()
	server := NewServer(exec.Sim(s), 1)
	src := rng.New(7)
	const lambda, instructions, horizon = 4.0, 100_000, 5_000.0

	var arrive func()
	arrive = func() {
		gap := src.Exp(1 / lambda)
		if s.Now()+gap > horizon {
			return
		}
		s.Schedule(gap, func() {
			server.Submit(instructions, func() {})
			arrive()
		})
	}
	arrive()
	s.RunUntil(horizon)
	if got := server.Utilization(); math.Abs(got-0.4) > 0.02 {
		t.Errorf("utilization = %v, want ~0.4", got)
	}
}
