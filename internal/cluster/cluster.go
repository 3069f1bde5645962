// Package cluster runs the hybrid transaction core as real processes over
// real TCP (DESIGN.md §13) — the second executor of the one protocol
// implementation in internal/hybrid. The simulator runs every partition of
// the core on one event queue (or a few shards); here each node — a local
// site or the central complex — runs exactly one partition
// (hybrid.NewSiteNode / hybrid.NewCentralNode) on its own exec.Loop, the
// wall-clock twin of a simulator shard. The route, execute, authenticate,
// commit and propagate handlers that run are the simulator's own; this
// package is process plumbing around them: listeners and reconnecting
// uplinks, the netx adapter that encodes the core's typed messages as
// frames and validates every inbound frame before the core sees it,
// receiver-side emulation of the link delay, the metrics registry and span
// trace fed by a bus observer, and the load generator.
//
// Network receive goroutines decode frames and post handlers onto the
// loop, which runs them one at a time, so the partition's lock table, CPU
// queue and per-transaction state need no locking, exactly as in the
// simulation. The cluster runs in emulation mode: CPU bursts and I/O hold
// real timers of their configured durations, and the configured one-way
// communication delay is emulated at the receiver of every inter-tier
// message (the sender's TCP latency rides inside it). That makes a loopback
// cluster's measured response times directly comparable to the simulator's
// predictions for the same hybrid.Config — the comparison the e2e test and
// the tolerance bands in testdata/tolerances.json enforce.
package cluster

import (
	"fmt"

	"hybriddb/internal/hybrid"
)

// validate rejects configurations the live engine cannot honor.
func validate(cfg hybrid.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.RateSchedules != nil {
		return fmt.Errorf("cluster: rate schedules are a simulator feature; pace the load generator instead")
	}
	if cfg.Feedback == hybrid.FeedbackIdeal {
		return fmt.Errorf("cluster: ideal feedback requires synchronously readable remote state; a live cluster cannot provide it")
	}
	if cfg.EpochLength > 0 {
		return fmt.Errorf("cluster: epoch-batched propagation needs a global epoch clock across sites; a live cluster has none")
	}
	return nil
}
