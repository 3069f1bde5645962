package cluster

// The live local site: one hybrid.NewSiteNode partition on the node's
// loop, fed by load generators (submissions) and by the uplink to central
// (the downlink half of the protocol), answering each submission when the
// partition reports its transaction complete.

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/routing"
)

// pendingSubmit routes a transaction's result back to the load generator
// connection that submitted it.
type pendingSubmit struct {
	conn  *netx.Conn
	reqID uint64
}

// SiteStats is a loop-consistent snapshot of a site's counters.
type SiteStats struct {
	Generated        uint64
	CompletedLocal   uint64
	RepliesDelivered uint64
	ShippedA         uint64
	ShippedB         uint64
	LocalA           uint64
	AbortsSeized     uint64
	AbortsDeadlock   uint64
	ShipSendErrors   uint64
	InSystem         int
}

// Site is one live local site.
type Site struct {
	*node
	idx int

	up *netx.Client // uplink to central

	// ready is closed once central has answered the site's Hello: only
	// then does central route protocol messages to this site.
	ready     chan struct{}
	readyOnce sync.Once

	// Loop-confined: submissions awaiting their result, and the routing
	// decisions by outcome.
	pending                    map[int64]pendingSubmit
	localA, shippedA, shippedB uint64

	// rtLocal / rtShipped are observed on the loop at completion — the live
	// twins of the simulator's per-route RT histograms.
	rtLocal   *metrics.Histogram
	rtShipped *metrics.Histogram
}

// StartSite boots site idx: it listens for load generators on addr and
// maintains a reconnecting uplink to the central node. The strategy routes
// this site's class A arrivals (nil: always local); stateful strategies
// should be forked per site (routing.SiteLocal) by the caller, as the
// simulator does.
func StartSite(cfg hybrid.Config, idx int, centralAddr, addr string, strategy routing.Strategy) (*Site, error) {
	if idx < 0 || idx >= cfg.Sites {
		return nil, fmt.Errorf("cluster: site index %d out of range [0,%d)", idx, cfg.Sites)
	}
	if strategy == nil {
		strategy = routing.AlwaysLocal{}
	}
	name := "site " + strconv.Itoa(idx)
	n, err := newNode(cfg, addr, name, spans.NewRecorder(name, spans.SitePid(idx), 0))
	if err != nil {
		return nil, err
	}
	s := &Site{
		node:    n,
		idx:     idx,
		ready:   make(chan struct{}),
		pending: make(map[int64]pendingSubmit),
	}
	if s.core, err = hybrid.NewSiteNode(cfg, idx, n.loop, strategy, (*transport)(n)); err != nil {
		n.close(func() {})
		return nil, err
	}
	s.core.Subscribe(obs.Func(s.observe))
	s.link = func(int) sender { return s.up }
	s.registerMetrics()
	// Each (re)connect sends a fresh Hello stamped with the current loop
	// clock; the central's HelloAck closes the NTP-style offset estimate.
	s.up = netx.DialLoop(centralAddr, s.dispatchCentral, func(c *netx.Conn) error {
		s.fr.Recordf(flight.Note, "connect", "uplink to %s", centralAddr)
		s.log.Debugf("uplink connected to %s", centralAddr)
		hello := netx.AppendHello(nil, netx.Hello{Site: uint32(idx), T0: s.loop.Now()})
		if err := c.Send(netx.MsgHello, 0, hello); err != nil {
			return err
		}
		s.wm.Out(netx.MsgHello)
		return nil
	}, netx.Options{Stats: s.net})
	s.serve(s.dispatchLoad)
	return s, nil
}

// Metrics returns the node's registry, for a debug listener or a test
// scrape.
func (s *Site) Metrics() *metrics.Registry { return s.reg }

// Flight returns the node's flight recorder of recent wire events.
func (s *Site) Flight() *flight.Recorder { return s.fr }

// Spans returns the node's live span recorder (local timebase, stamped with
// the handshake's clock-offset estimate).
func (s *Site) Spans() *spans.Recorder { return s.spans }

// Addr returns the load-generator listener's address.
func (s *Site) Addr() string { return s.ln.Addr().String() }

// WaitReady blocks until the central node has registered this site —
// answered its Hello — so messages central routes here are delivered.
func (s *Site) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// registerMetrics wires the registry: per-route RT histograms observed on
// the loop, and one scrape hook mirroring the loop-confined counters so the
// site conservation invariant generated == completed_local +
// replies_delivered + in_flight holds exactly in every exposition.
func (s *Site) registerMetrics() {
	// 1 ms buckets over [0, 3 s): live response times are milliseconds.
	s.rtLocal = s.reg.Histogram("site_rt_seconds", "transaction response time by route", 0, 3, 3000, metrics.L("route", "local"))
	s.rtShipped = s.reg.Histogram("site_rt_seconds", "transaction response time by route", 0, 3, 3000, metrics.L("route", "shipped"))
	s.reg.GaugeFunc("site_clock_offset_seconds", "estimated central-minus-local clock offset from the Hello handshake", s.spans.ClockOffset)
	generated := s.reg.Counter("site_generated_total", "transactions submitted to this site")
	completedLocal := s.reg.Counter("site_completed_local_total", "transactions committed on the local path")
	replies := s.reg.Counter("site_replies_delivered_total", "shipped-transaction completions delivered to load generators")
	routeLocal := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "local"))
	routeShip := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "ship"))
	routeShipB := s.reg.Counter("site_route_decisions_total", "routing decisions by outcome", metrics.L("route", "ship_b"))
	abortSeized := s.reg.Counter("site_aborts_total", "local aborts by cause", metrics.L("cause", "seized"))
	abortDead := s.reg.Counter("site_aborts_total", "local aborts by cause", metrics.L("cause", "deadlock"))
	shipErrs := s.reg.Counter("site_ship_send_errors_total", "ship frames lost to a down uplink")
	inFlight := s.reg.Gauge("site_in_flight", "submissions awaiting a result, both routes")
	inSystem := s.reg.Gauge("site_in_system", "transactions executing locally")
	queue := s.reg.Gauge("site_cpu_queue_depth", "bursts queued at the site CPU, job in service included")
	locksHeld := s.reg.Gauge("site_locks_held", "locks held at this site")
	s.mirror(func() {
		st := s.snapshot()
		n := s.core.Counts()
		counterTo(generated, st.Generated)
		counterTo(completedLocal, st.CompletedLocal)
		counterTo(replies, st.RepliesDelivered)
		counterTo(routeLocal, st.LocalA)
		counterTo(routeShip, st.ShippedA)
		counterTo(routeShipB, st.ShippedB)
		counterTo(abortSeized, st.AbortsSeized)
		counterTo(abortDead, st.AbortsDeadlock)
		counterTo(shipErrs, st.ShipSendErrors)
		inFlight.Set(float64(len(s.pending)))
		inSystem.Set(float64(n.InSystem))
		queue.Set(float64(n.CPUQueue))
		locksHeld.Set(float64(n.LocksHeld))
	})
}

// dispatchLoad handles frames from load-generator connections: submissions
// enter the site immediately (the load generator stands in for the site's
// local terminals — no star-network delay on this hop, matching the
// simulator's arrival process).
func (s *Site) dispatchLoad(conn *netx.Conn, f netx.Frame) {
	s.wm.In(f.Type)
	if f.Type != netx.MsgSubmit {
		s.reject(conn, f.Type, netx.ErrUnexpectedType)
		return
	}
	spec, err := netx.DecodeSubmit(f.Payload, s.bounds, s.idx)
	if err != nil {
		s.reject(conn, f.Type, err)
		return
	}
	s.fr.Recordf(flight.In, "submit", "txn %d", spec.ID)
	reqID := f.ReqID
	s.loop.Post(func() {
		if _, dup := s.pending[spec.ID]; dup {
			s.log.Errorf("duplicate submission of txn %d", spec.ID)
			s.wm.Error("duplicate-submit")
			return
		}
		s.pending[spec.ID] = pendingSubmit{conn: conn, reqID: reqID}
		s.core.Admit(spec)
	})
}

// dispatchCentral handles frames arriving on the uplink: the handshake
// answer, and the downlink half of the protocol.
func (s *Site) dispatchCentral(conn *netx.Conn, f netx.Frame) {
	s.wm.In(f.Type)
	if f.Type != netx.MsgHelloAck {
		s.receive(conn, f, s.idx)
		return
	}
	ack, err := netx.DecodeHelloAck(f.Payload)
	if err != nil {
		s.reject(conn, f.Type, err)
		return
	}
	// NTP-style offset closes here: t1 is this site's clock at receipt,
	// ack.T0 its clock at send, ack.TCentral the central clock between.
	t1 := s.loop.Now()
	offset := spans.EstimateClockOffset(ack.T0, t1, ack.TCentral)
	s.spans.SetClockOffset(offset)
	s.fr.Recordf(flight.In, "hello-ack", "offset=%.6fs rtt=%.6fs", offset, t1-ack.T0)
	s.log.Debugf("clock offset vs central: %.6fs (rtt %.6fs)", offset, t1-ack.T0)
	s.readyOnce.Do(func() { close(s.ready) })
}

// observe is the partition's bus observer: it tallies the lifecycle, keeps
// the trace, and answers each load generator when its transaction
// completes. It runs on the loop.
func (s *Site) observe(ev obs.Event) {
	s.count(ev)
	switch ev.Kind {
	case obs.TxnArrive:
		class, decision := "A", "local"
		switch {
		case ev.ClassB:
			class, decision = "B", "ship_b"
			s.shippedB++
		case ev.Shipped:
			decision = "ship"
			s.shippedA++
		default:
			s.localA++
		}
		s.spans.Begin(ev.At, ev.Txn, "txn", spans.KV{K: "class", V: class})
		s.spans.Instant(ev.At, ev.Txn, "route", spans.KV{K: "decision", V: decision})
	case obs.TxnLocalCommit:
		s.rtLocal.Observe(ev.Value)
		s.spans.End(ev.At, ev.Txn,
			spans.KV{K: "route", V: "local"},
			spans.KV{K: "attempts", V: strconv.Itoa(int(ev.Aux))})
		s.respond(netx.Result{Txn: ev.Txn})
	case obs.TxnReply:
		s.rtShipped.Observe(ev.Value)
		s.spans.End(ev.At, ev.Txn, spans.KV{K: "route", V: "shipped"})
		s.respond(netx.Result{Txn: ev.Txn, Shipped: true, ClassB: ev.ClassB})
	case obs.AbortLocalSeized:
		s.spans.Instant(ev.At, ev.Txn, "abort", spans.KV{K: "cause", V: "seized"})
	case obs.AbortDeadlockLocal:
		s.spans.Instant(ev.At, ev.Txn, "abort", spans.KV{K: "cause", V: "deadlock"})
	case obs.AuthAck, obs.AuthNack:
		verdict := "auth-ack"
		if ev.Kind == obs.AuthNack {
			verdict = "auth-nack"
		}
		s.spans.Instant(ev.At, ev.Txn, verdict, spans.KV{K: "elems", V: strconv.Itoa(int(ev.Value))})
	}
}

// respond answers the load generator that submitted a completed
// transaction.
func (s *Site) respond(res netx.Result) {
	p, ok := s.pending[res.Txn]
	if !ok {
		return
	}
	delete(s.pending, res.Txn)
	if err := p.conn.Send(netx.MsgResult, p.reqID, netx.AppendResult(nil, res)); err != nil {
		s.log.Errorf("result send failed (txn %d): %v", res.Txn, err)
		s.wm.Error("result-send")
		return
	}
	s.wm.Out(netx.MsgResult)
}

// snapshot assembles the counters; call on the loop.
func (s *Site) snapshot() SiteStats {
	n := s.core.Counts()
	return SiteStats{
		Generated:        n.Generated,
		CompletedLocal:   n.CompletedLocal,
		RepliesDelivered: n.RepliesDelivered,
		ShippedA:         s.shippedA,
		ShippedB:         s.shippedB,
		LocalA:           s.localA,
		AbortsSeized:     s.events[obs.AbortLocalSeized],
		AbortsDeadlock:   s.events[obs.AbortDeadlockLocal],
		ShipSendErrors:   s.sendFailed[netx.MsgShip],
		InSystem:         n.InSystem,
	}
}

// Stats returns a loop-consistent snapshot of the counters (zero after
// Close).
func (s *Site) Stats() SiteStats {
	var st SiteStats
	s.stats(func() { st = s.snapshot() })
	return st
}

// Close shuts the site down: uplink, listener, load connections, loop.
func (s *Site) Close() error { return s.close(func() { s.up.Close() }) }
