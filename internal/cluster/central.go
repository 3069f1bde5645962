package cluster

// The live central computing complex: one hybrid.NewCentralNode partition
// on the node's loop, fed by the sites' uplinks (the uplink half of the
// protocol), sending the downlink half on each site's registered
// connection.

import (
	"strconv"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
)

// CentralStats is a loop-consistent snapshot of the central node's state.
type CentralStats struct {
	ShipArrived    uint64
	Commits        uint64
	RepliesSent    uint64
	InSystem       int
	AuthRounds     uint64
	AbortsNACK     uint64
	AbortsInval    uint64
	AbortsDeadlock uint64
	UpdatesApplied uint64
	ColdFetches    uint64
}

// Central is the live central node.
type Central struct {
	*node

	// Loop-confined: each site's registered uplink, and the transactions
	// whose authentication span is open in the trace.
	siteConns []*netx.Conn
	authOpen  map[int64]struct{}
}

// StartCentral boots a central node listening on addr ("host:0" picks a
// free port; see Addr).
func StartCentral(cfg hybrid.Config, addr string) (*Central, error) {
	n, err := newNode(cfg, addr, "central", spans.NewRecorder("central complex", spans.CentralPid, 0))
	if err != nil {
		return nil, err
	}
	c := &Central{
		node:      n,
		siteConns: make([]*netx.Conn, cfg.Sites),
		authOpen:  make(map[int64]struct{}),
	}
	if c.core, err = hybrid.NewCentralNode(cfg, n.loop, (*transport)(n)); err != nil {
		n.close(func() {})
		return nil, err
	}
	c.core.Subscribe(obs.Func(c.observe))
	c.link = func(site int) sender {
		if conn := c.siteConns[site]; conn != nil {
			return conn
		}
		return nil
	}
	c.registerMetrics()
	c.serve(c.dispatch)
	return c, nil
}

// Metrics returns the node's registry, for a debug listener or a test
// scrape.
func (c *Central) Metrics() *metrics.Registry { return c.reg }

// Flight returns the node's flight recorder of recent wire events.
func (c *Central) Flight() *flight.Recorder { return c.fr }

// Spans returns the node's live span recorder (central timebase).
func (c *Central) Spans() *spans.Recorder { return c.spans }

// Addr returns the listener's address, for sites to dial.
func (c *Central) Addr() string { return c.ln.Addr().String() }

// registerMetrics wires the registry: a scrape hook that mirrors the
// loop-confined protocol state in one loop-time instant — which is what
// lets a scrape assert the exact conservation invariant ship_arrived ==
// commits + in_system.
func (c *Central) registerMetrics() {
	shipArrived := c.reg.Counter("central_ship_arrived_total", "shipped transactions arrived")
	commits := c.reg.Counter("central_commits_total", "central commits")
	replies := c.reg.Counter("central_replies_sent_total", "completion replies sent to home sites")
	authRounds := c.reg.Counter("central_auth_rounds_total", "authentication rounds started")
	updates := c.reg.Counter("central_updates_applied_total", "site update batches applied")
	coldFetches := c.reg.Counter("central_cold_fetch_total", "cold-element fetches paid under partial replication")
	abortNACK := c.reg.Counter("central_aborts_total", "central aborts by cause", metrics.L("cause", "nack"))
	abortInval := c.reg.Counter("central_aborts_total", "central aborts by cause", metrics.L("cause", "invalidated"))
	abortDead := c.reg.Counter("central_aborts_total", "central aborts by cause", metrics.L("cause", "deadlock"))
	inSystem := c.reg.Gauge("central_in_system", "transactions at central in any phase")
	queue := c.reg.Gauge("central_cpu_queue_depth", "bursts queued at the central CPU, job in service included")
	locksHeld := c.reg.Gauge("central_locks_held", "locks held at central")
	c.mirror(func() {
		st := c.snapshot()
		counterTo(shipArrived, st.ShipArrived)
		counterTo(commits, st.Commits)
		counterTo(replies, st.RepliesSent)
		counterTo(authRounds, st.AuthRounds)
		counterTo(updates, st.UpdatesApplied)
		counterTo(coldFetches, st.ColdFetches)
		counterTo(abortNACK, st.AbortsNACK)
		counterTo(abortInval, st.AbortsInval)
		counterTo(abortDead, st.AbortsDeadlock)
		n := c.core.Counts()
		inSystem.Set(float64(n.InSystem))
		queue.Set(float64(n.CPUQueue))
		locksHeld.Set(float64(n.LocksHeld))
	})
}

// dispatch handles one inbound frame on a site connection's read
// goroutine: the registration handshake, or the uplink half of the
// protocol.
func (c *Central) dispatch(conn *netx.Conn, f netx.Frame) {
	c.wm.In(f.Type)
	if f.Type != netx.MsgHello {
		c.receive(conn, f, -1)
		return
	}
	h, err := netx.DecodeHelloFor(f.Payload, c.bounds)
	if err != nil {
		c.reject(conn, f.Type, err)
		return
	}
	c.fr.Recordf(flight.In, "hello", "site %d t0=%.6f", h.Site, h.T0)
	c.loop.Post(func() { c.register(h, conn) })
}

// register installs a site's uplink and answers its Hello with the central
// clock reading, completing the NTP-style offset handshake.
func (c *Central) register(h netx.Hello, conn *netx.Conn) {
	site := int(h.Site)
	if old := c.siteConns[site]; old != nil && old != conn {
		old.Close() // a site redialed; the stale uplink is dead
	}
	c.siteConns[site] = conn
	c.log.Debugf("site %d registered from %s", site, conn.RemoteAddr())
	// Counted before the send: a site that sees the ack may read this
	// counter as proof of registration.
	c.wm.Out(netx.MsgHelloAck)
	ack := netx.AppendHelloAck(nil, netx.HelloAck{T0: h.T0, TCentral: c.loop.Now()})
	if err := conn.Send(netx.MsgHelloAck, 0, ack); err != nil {
		c.log.Errorf("hello-ack to site %d: %v", site, err)
		c.wm.Error("hello-ack-send")
		return
	}
	c.fr.Recordf(flight.Out, "hello-ack", "site %d", site)
}

// observe is the partition's bus observer: it tallies the lifecycle and
// keeps the trace. It runs on the loop.
func (c *Central) observe(ev obs.Event) {
	c.count(ev)
	switch ev.Kind {
	case obs.ShipArrive:
		c.spans.Begin(ev.At, ev.Txn, "exec", spans.KV{K: "home", V: strconv.Itoa(int(ev.Value))})
	case obs.AuthRound:
		c.authOpen[ev.Txn] = struct{}{}
		c.spans.Begin(ev.At, ev.Txn, "auth", spans.KV{K: "sites", V: strconv.Itoa(int(ev.Value))})
	case obs.AbortCentralNACK:
		c.abortSpan(ev, "nack")
	case obs.AbortCentralInval:
		c.abortSpan(ev, "invalidated")
	case obs.AbortDeadlockCentral:
		c.abortSpan(ev, "deadlock")
	case obs.CentralCommit:
		c.closeAuth(ev, "commit")
		c.spans.End(ev.At, ev.Txn, spans.KV{K: "attempts", V: strconv.Itoa(int(ev.Aux))})
		c.spans.Instant(ev.At, ev.Txn, "commit")
	case obs.UpdateApplied:
		c.spans.Instant(ev.At, ev.Txn, "update-applied",
			spans.KV{K: "site", V: strconv.Itoa(int(ev.Aux))},
			spans.KV{K: "elems", V: strconv.Itoa(int(ev.Value))})
	}
}

// closeAuth ends the transaction's authentication span, if one is open.
func (c *Central) closeAuth(ev obs.Event, outcome string) {
	if _, open := c.authOpen[ev.Txn]; open {
		delete(c.authOpen, ev.Txn)
		c.spans.End(ev.At, ev.Txn, spans.KV{K: "outcome", V: outcome})
	}
}

// abortSpan closes any open auth span and marks the abort on the
// transaction's trace lane.
func (c *Central) abortSpan(ev obs.Event, cause string) {
	c.closeAuth(ev, "abort")
	c.spans.Instant(ev.At, ev.Txn, "abort", spans.KV{K: "cause", V: cause})
}

// snapshot assembles the counters; call on the loop.
func (c *Central) snapshot() CentralStats {
	n := c.core.Counts()
	return CentralStats{
		ShipArrived:    n.ShipArrived,
		Commits:        n.Commits,
		RepliesSent:    n.Commits,
		InSystem:       n.InSystem,
		AuthRounds:     c.events[obs.AuthRound],
		AbortsNACK:     c.events[obs.AbortCentralNACK],
		AbortsInval:    c.events[obs.AbortCentralInval],
		AbortsDeadlock: c.events[obs.AbortDeadlockCentral],
		UpdatesApplied: c.events[obs.UpdateApplied],
		ColdFetches:    c.events[obs.ColdFetch],
	}
}

// Stats returns a snapshot taken on the loop, so it is consistent with the
// protocol state (zero after Close).
func (c *Central) Stats() CentralStats {
	var st CentralStats
	c.stats(func() { st = c.snapshot() })
	return st
}

// Close shuts the node down: stop accepting, drop every connection, stop
// the loop.
func (c *Central) Close() error { return c.close(func() {}) }
