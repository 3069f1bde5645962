package hybrid

// The protocol core: the partitions (local sites and the central complex),
// the lifecycle handlers that drive them, and the message dispatch that
// connects them through a Transport. The simulator's Engine owns a core
// holding every partition; a live cluster node (node.go) owns a core
// holding exactly one. Either way the handlers are the same code.

import (
	"fmt"

	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/flatmap"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// core is the protocol state machine of §2 and the partitions it runs on.
type core struct {
	cfg Config
	wl  workload.Config

	// sites is indexed by site; a live site node fills only its own entry.
	// central is nil at a live site node.
	sites   []*localSite
	central *centralSite

	// strategies holds the per-site decision instances: stateful strategies
	// (routing.SiteLocal) are forked one per site so each site's decision
	// stream is a pure function of that site's arrivals; stateless ones are
	// shared.
	strategies []routing.Strategy

	network Transport

	// Instrumentation: every observation flows through the bus. clock
	// stamps detail events, which only a single-queue run (or a
	// single-partition node) emits.
	bus   obs.Bus
	clock exec.Clock

	// recycleSpecs is set when the admitted specs belong to the core (the
	// engine's own generator) and may be reused once their transaction
	// completes.
	recycleSpecs bool

	// Partial-replication geometry (Config.CentralHotFraction < 1): a
	// partition element at offset >= hotPerPart is cold — not centrally
	// resident — and a central-path call on it pays ColdFetchDelay.
	partialRepl bool
	hotPerPart  uint32
	partSize    uint32

	// Lifecycle and propagation layers (stateless handles on the core).
	local  localPath
	remote centralPath
	commit commitProtocol
	prop   propagator
}

// init sets up the configuration-derived state and the layer handles.
func (c *core) init(cfg Config, clock exec.Clock) {
	c.cfg = cfg
	c.wl = cfg.WorkloadConfig()
	c.clock = clock
	c.sites = make([]*localSite, cfg.Sites)
	c.strategies = make([]routing.Strategy, cfg.Sites)
	c.partSize = c.wl.PartitionSize()
	if cfg.CentralHotFraction < 1 {
		c.partialRepl = true
		c.hotPerPart = uint32(cfg.CentralHotFraction * float64(c.partSize))
	} else {
		c.hotPerPart = c.partSize
	}
	c.local = localPath{c}
	c.remote = centralPath{c}
	c.commit = commitProtocol{c}
	c.prop = propagator{c}
}

// newLocalSite builds site idx's partition on the given executor.
func (c *core) newLocalSite(idx int, s exec.Scheduler) *localSite {
	ls := &localSite{
		idx:     idx,
		sched:   exec.NewDispatch(s),
		cpu:     cpu.NewServer(s, c.cfg.LocalMIPS),
		disks:   newDisks(s, c.cfg.DisksPerSite),
		locks:   lock.NewManager(),
		running: flatmap.New[lock.ID, *txnRun](16),
	}
	c.sites[idx] = ls
	return ls
}

// newCentralSite builds the central complex's partition on the given
// executor.
func (c *core) newCentralSite(s exec.Scheduler) {
	c.central = &centralSite{
		sched:   exec.NewDispatch(s),
		cpu:     cpu.NewServer(s, c.cfg.CentralMIPS),
		disks:   newDisks(s, c.cfg.DisksCentral),
		locks:   lock.NewManager(),
		running: flatmap.New[lock.ID, *txnRun](16),
	}
}

// deliver hands a message arriving over the transport to the receiving
// partition's handler; sentAt is the message's send instant. It reports
// false when the message matched no protocol state (a stray or forged
// message; the simulator never produces one) and was dropped.
func (c *core) deliver(m Msg, sentAt float64) bool {
	switch m.Kind {
	case MsgShip:
		return c.remote.arrive(m.Spec)
	case MsgAuthReq:
		c.commit.authenticate(m, sentAt)
	case MsgAuthReply:
		return c.commit.reply(m)
	case MsgRelease:
		c.commit.release(m, sentAt)
	case MsgUpdate:
		c.prop.centralApply(m)
	case MsgUpdateAck:
		c.prop.acked(m, sentAt)
	case MsgReply:
		return c.commit.delivered(m, sentAt)
	default:
		return false
	}
	return true
}

// simReceiver is the delivery callback of the simulated transports, where a
// dropped message is a protocol bug.
func (c *core) simReceiver() func(Msg, float64) {
	return func(m Msg, sentAt float64) {
		if !c.deliver(m, sentAt) {
			panic(fmt.Sprintf("hybrid: undeliverable %d message for txn %d", m.Kind, m.Txn))
		}
	}
}

// observeAt emits a lifecycle event stamped with the given time — the
// clock of whichever partition the emitting handler runs on.
func (c *core) observeAt(at float64, ev obs.Event) {
	ev.At = at
	c.bus.Emit(ev)
}

// detail emits a detail-kind event (obs.Kind.Detail) stamped with the
// core's clock. The HasDetail guard keeps the hot loop free of event
// construction when no detail observer listens. Detail observers imply a
// sequential run, so the single queue's clock is correct.
func (c *core) detail(kind obs.Kind, txn int64, site int, elem uint32, value float64) {
	if !c.bus.HasDetail() {
		return
	}
	c.bus.Emit(obs.Event{
		At: c.clock.Now(), Kind: kind, Txn: txn, Site: site, Elem: elem, Value: value,
	})
}

// admit processes one arriving transaction at its home site, whatever its
// source: class B ships unconditionally, class A consults the routing
// strategy.
func (c *core) admit(spec *workload.Txn) {
	site := spec.HomeSite
	ls := c.sites[site]
	ls.generated++
	t := c.takeRun(&ls.txnFree, false, spec, ls.sched.Now())

	classB := spec.Class == workload.ClassB
	shipped, viewAge := classB, 0.0
	if !classB {
		st := c.routingState(site)
		shipped = c.strategies[site].Decide(st) == routing.Ship
		viewAge = st.ViewAge
	}
	c.observeAt(ls.sched.Now(), obs.Event{Kind: obs.TxnArrive, ClassB: classB, Shipped: shipped, Value: viewAge, Site: site, Txn: spec.ID})
	if shipped {
		c.remote.ship(t)
		return
	}
	c.local.start(t)
}

// isCold reports whether a lockspace element is outside the central
// complex's replicated hot fragment. Offsets are taken within the element's
// partition; the remainder elements of an uneven split (attached to the last
// site) sit past its partition size and are always cold.
func (c *core) isCold(elem uint32) bool {
	site := elem / c.partSize
	if int(site) >= c.cfg.Sites {
		site = uint32(c.cfg.Sites - 1)
	}
	return elem-site*c.partSize >= c.hotPerPart
}
