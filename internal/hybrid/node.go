package hybrid

// The second executor's entry point: one partition of the core per process.
// A live cluster node (internal/cluster) owns either one local site or the
// central complex on its own wall-clock exec.Loop, hands the core the
// messages its transport decodes, and sends what the core emits — the
// handlers that run are the simulator's own.

import (
	"fmt"
	"slices"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// Node is one partition of the protocol core — a single local site or the
// central complex. It holds only that partition's state. Every method must
// run on the node's scheduler, one at a time (an exec.Loop serializes
// them), exactly as a simulated partition's events run on its queue.
type Node struct {
	c    core
	site int // the local site's index, or -1 for the central complex
}

// NewSiteNode builds local site idx on sched. Its messages to the central
// complex go out through tr; strategy routes its class A arrivals
// (stateful strategies should be forked per site with routing.SiteLocal,
// as the engine does).
func NewSiteNode(cfg Config, idx int, sched exec.Scheduler, strategy routing.Strategy, tr Transport) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= cfg.Sites {
		return nil, fmt.Errorf("hybrid: site index %d out of range [0,%d)", idx, cfg.Sites)
	}
	if strategy == nil {
		return nil, fmt.Errorf("hybrid: nil strategy")
	}
	n := &Node{site: idx}
	n.c.init(cfg, sched)
	n.c.network = tr
	n.c.newLocalSite(idx, sched)
	n.c.strategies[idx] = strategy
	return n, nil
}

// NewCentralNode builds the central complex on sched; its messages to the
// sites go out through tr.
func NewCentralNode(cfg Config, sched exec.Scheduler, tr Transport) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{site: -1}
	n.c.init(cfg, sched)
	n.c.network = tr
	n.c.newCentralSite(sched)
	return n, nil
}

// Subscribe attaches an observer to the node's bus. Call before the first
// Admit or Deliver.
func (n *Node) Subscribe(o obs.Observer) { n.c.bus.Subscribe(o) }

// Admit runs an arriving transaction at this site. The caller validates
// that spec belongs here (HomeSite, bounds, a fresh ID) and hands over its
// ownership.
func (n *Node) Admit(spec *workload.Txn) {
	if n.site < 0 || spec.HomeSite != n.site {
		panic(fmt.Sprintf("hybrid: transaction for site %d admitted at node %d", spec.HomeSite, n.site))
	}
	n.c.admit(spec)
}

// Deliver hands the node a message that arrived for it, sent at sentAt in
// the node's timebase. It reports false, dropping the message, when the
// message is not addressed to this partition or matches no protocol state.
func (n *Node) Deliver(m Msg, sentAt float64) bool {
	if m.Kind.Uplink() != (n.site < 0) || (n.site >= 0 && m.Site != n.site) {
		return false
	}
	if m.Kind == MsgUpdateAck && !n.c.sites[n.site].inFlight(m.Elems) {
		return false
	}
	return n.c.deliver(m, sentAt)
}

// inFlight reports whether every element of an acknowledgement has an
// update in flight from ls, counting repeats (a batch may carry one element
// twice), so an acknowledgement nobody asked for cannot drive a coherence
// count below zero. The simulator never needs the check.
func (ls *localSite) inFlight(elems []uint32) bool {
	sorted := slices.Clone(elems)
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if ls.locks.Coherence(sorted[i]) < j-i {
			return false
		}
		i = j
	}
	return true
}

// NodeCounts is a snapshot of a node's conservation counters and load.
type NodeCounts struct {
	// Site counters: transactions admitted, committed locally, and
	// completed by a delivered reply; class A executing here.
	Generated, CompletedLocal, RepliesDelivered uint64
	// Central counters: shipped transactions admitted, and committed
	// (each sends one reply).
	ShipArrived, Commits uint64
	// InSystem is n_i at a site, n_c at the central complex.
	InSystem  int
	CPUQueue  int
	LocksHeld int
}

// Counts returns the node's counters.
func (n *Node) Counts() NodeCounts {
	if n.site < 0 {
		cs := n.c.central
		return NodeCounts{
			ShipArrived: cs.shipArrived, Commits: cs.replyStarted,
			InSystem: cs.inSystem, CPUQueue: cs.cpu.QueueLength(), LocksHeld: cs.locks.LocksHeld(),
		}
	}
	ls := n.c.sites[n.site]
	return NodeCounts{
		Generated: ls.generated, CompletedLocal: ls.completed - ls.replyArrived, RepliesDelivered: ls.replyArrived,
		InSystem: ls.inSystem, CPUQueue: ls.cpu.QueueLength(), LocksHeld: ls.locks.LocksHeld(),
	}
}
