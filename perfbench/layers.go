package main

// Probes that time one layer from outside, through its public functions:
// a routing.Strategy wrapper, a workload.Generator replay, a wire-codec
// round trip and an exec.Loop probe.

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybriddb/internal/exec"
	"hybriddb/internal/netx"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// timedStrategy wraps a routing strategy to count and time its Decide
// calls. It always forks one instance per site (routing.SiteLocal), so each
// site's timings are written by the one goroutine that runs the site, even
// when the sharded engine runs sites concurrently; a stateful inner strategy
// is forked too, keeping its per-site decision streams, so the wrapped run
// decides exactly as the unwrapped one.
type timedStrategy struct {
	inner  routing.Strategy
	tr     *tracer
	record atomic.Bool // record spans; toggled while a live cluster runs
	sites  []*timedSite
}

// timedSite is one site's instance of a timedStrategy.
type timedSite struct {
	parent *timedStrategy
	inner  routing.Strategy
	site   int
	spans  []span // one per recorded Decide; read only after the site stops
	ships  int
}

func newTimedStrategy(inner routing.Strategy, tr *tracer) *timedStrategy {
	return &timedStrategy{inner: inner, tr: tr}
}

// Name implements routing.Strategy.
func (s *timedStrategy) Name() string { return s.inner.Name() }

// Decide implements routing.Strategy; the engine calls only the per-site
// instances, which ForSite hands out.
func (s *timedStrategy) Decide(st routing.State) routing.Decision { return s.inner.Decide(st) }

// ForSite implements routing.SiteLocal.
func (s *timedStrategy) ForSite(site int, seed uint64) routing.Strategy {
	inner := s.inner
	if sl, ok := inner.(routing.SiteLocal); ok {
		inner = sl.ForSite(site, seed)
	}
	ts := &timedSite{parent: s, inner: inner, site: site}
	s.sites = append(s.sites, ts)
	return ts
}

// Name implements routing.Strategy.
func (s *timedSite) Name() string { return s.inner.Name() }

// Decide implements routing.Strategy.
func (s *timedSite) Decide(st routing.State) routing.Decision {
	if !s.parent.record.Load() {
		return s.inner.Decide(st)
	}
	t0 := time.Now()
	d := s.inner.Decide(st)
	t1 := time.Now()
	s.spans = append(s.spans, span{
		name: "routing.Decide", start: s.parent.tr.at(t0), end: s.parent.tr.at(t1),
		lane: laneSite0 - int64(s.site),
	})
	if d == routing.Ship {
		s.ships++
	}
	return d
}

// collect adds every recorded Decide span under parent and returns the
// number of calls, their mean duration in nanoseconds and the fraction that
// shipped. Call it only after the sites have stopped.
func (s *timedStrategy) collect(parent int) (calls int, meanNs, shipFrac float64) {
	var total int64
	var ships int
	for _, site := range s.sites {
		for _, sp := range site.spans {
			sp.parent = parent
			s.tr.add(sp)
			total += sp.end - sp.start
		}
		calls += len(site.spans)
		ships += site.ships
	}
	return calls, ratio(float64(total), float64(calls)), ratio(float64(ships), float64(calls))
}

// replayWorkload calls Generator.NextInto n times, round robin over the
// sites, with the generator a hybrid.Engine of the same config and seed
// would build, and returns the mean nanoseconds per call. The engine seeds
// its generator with the first split of the root stream of Config.Seed.
func replayWorkload(tr *tracer, parent int, wl workload.Config, engineSeed uint64, n int) float64 {
	gen := workload.NewGenerator(wl, rng.New(engineSeed).Split().Uint64())
	var t workload.Txn
	sp := tr.begin("workload.NextInto", parent)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		gen.NextInto(i%wl.Sites, &t)
	}
	d := time.Since(t0)
	tr.end(sp)
	return ratio(float64(d.Nanoseconds()), float64(n))
}

// codecCase is one message type of the wire round trip: enc appends the
// i-th message to dst, dec decodes a payload, and show decodes a payload
// and renders the message for comparison with want, the original.
type codecCase struct {
	name string
	enc  func(dst []byte, i int) []byte
	dec  func(p []byte) error
	show func(p []byte) (string, error)
	want func(i int) string
}

// codecRoundTrip encodes and decodes the protocol messages built from txns
// (Submit's Txn, Result, Ship, AuthReq, AuthReply, Update, UpdateAck and
// Reply) reps times and returns the median over repetitions of the mean
// nanoseconds per encode and per decode. Each decoded message must equal
// its original; every comparison is a checked operation.
func codecRoundTrip(r *run, tr *tracer, parent int, txns []*workload.Txn, reps int) (encNs, decNs float64) {
	snap := netx.Snapshot{Queue: 3, InSystem: 7, Locks: 41}
	updates := make([][]uint32, len(txns))
	for i, t := range txns {
		updates[i] = t.AppendUpdates(nil)
	}
	str := func(v any) string { return fmt.Sprintf("%+v", v) }
	authReq := func(i int) netx.AuthReq {
		t := txns[i]
		return netx.AuthReq{Txn: t.ID, Elements: t.Elements, Modes: t.Modes, Snap: snap, Traced: i%2 == 0}
	}
	authReply := func(i int) netx.AuthReply {
		return netx.AuthReply{Txn: txns[i].ID, Site: uint32(txns[i].HomeSite), NACK: i%5 == 0}
	}
	update := func(i int) netx.Update {
		t := txns[i]
		return netx.Update{Site: uint32(t.HomeSite), Txn: t.ID, Elements: updates[i], Traced: i%2 == 0}
	}
	updateAck := func(i int) netx.UpdateAck { return netx.UpdateAck{Elements: updates[i], Snap: snap} }
	reply := func(i int) netx.Reply {
		return netx.Reply{Txn: txns[i].ID, ClassB: txns[i].Class == workload.ClassB, Snap: snap, Traced: i%2 == 0}
	}
	result := func(i int) netx.Result {
		b := txns[i].Class == workload.ClassB
		return netx.Result{Txn: txns[i].ID, Shipped: b || i%3 == 0, ClassB: b}
	}
	cases := []codecCase{
		{name: "Txn",
			enc:  func(d []byte, i int) []byte { return netx.AppendTxn(d, txns[i]) },
			dec:  func(p []byte) error { _, err := netx.DecodeTxn(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeTxn(p); return str(v), err },
			want: func(i int) string { return str(txns[i]) }},
		{name: "Result",
			enc:  func(d []byte, i int) []byte { return netx.AppendResult(d, result(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeResult(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeResult(p); return str(v), err },
			want: func(i int) string { return str(result(i)) }},
		{name: "Ship",
			enc: func(d []byte, i int) []byte { return netx.AppendShip(d, txns[i], i%2 == 0) },
			dec: func(p []byte) error { _, _, err := netx.DecodeShip(p); return err },
			show: func(p []byte) (string, error) {
				v, traced, err := netx.DecodeShip(p)
				return str(v) + str(traced), err
			},
			want: func(i int) string { return str(txns[i]) + str(i%2 == 0) }},
		{name: "AuthReq",
			enc:  func(d []byte, i int) []byte { return netx.AppendAuthReq(d, authReq(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeAuthReq(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeAuthReq(p); return str(v), err },
			want: func(i int) string { return str(authReq(i)) }},
		{name: "AuthReply",
			enc:  func(d []byte, i int) []byte { return netx.AppendAuthReply(d, authReply(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeAuthReply(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeAuthReply(p); return str(v), err },
			want: func(i int) string { return str(authReply(i)) }},
		{name: "Update",
			enc:  func(d []byte, i int) []byte { return netx.AppendUpdate(d, update(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeUpdate(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeUpdate(p); return str(v), err },
			want: func(i int) string { return str(update(i)) }},
		{name: "UpdateAck",
			enc:  func(d []byte, i int) []byte { return netx.AppendUpdateAck(d, updateAck(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeUpdateAck(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeUpdateAck(p); return str(v), err },
			want: func(i int) string { return str(updateAck(i)) }},
		{name: "Reply",
			enc:  func(d []byte, i int) []byte { return netx.AppendReply(d, reply(i)) },
			dec:  func(p []byte) error { _, err := netx.DecodeReply(p); return err },
			show: func(p []byte) (string, error) { v, err := netx.DecodeReply(p); return str(v), err },
			want: func(i int) string { return str(reply(i)) }},
	}
	// Encode every message once to have payloads to decode, and check the
	// round trip.
	payloads := make([][][]byte, len(cases))
	for c, cc := range cases {
		payloads[c] = make([][]byte, len(txns))
		for i := range txns {
			p := cc.enc(nil, i)
			payloads[c][i] = p
			got, err := cc.show(p)
			r.chk.ok(err == nil && got == cc.want(i), "netx %s round trip of message %d: %v", cc.name, i, err)
		}
	}
	msgs := float64(len(cases) * len(txns))
	var encs, decs []float64
	var buf []byte
	for rep := 0; rep < reps; rep++ {
		var enc, dec time.Duration
		for _, cc := range cases {
			sp := tr.begin("netx.Append"+cc.name, parent)
			t0 := time.Now()
			for i := range txns {
				buf = cc.enc(buf[:0], i)
			}
			enc += time.Since(t0)
			tr.end(sp)
		}
		for c, cc := range cases {
			sp := tr.begin("netx.Decode"+cc.name, parent)
			t0 := time.Now()
			for _, p := range payloads[c] {
				_ = cc.dec(p) // errors were counted by the round-trip check
			}
			dec += time.Since(t0)
			tr.end(sp)
		}
		encs = append(encs, float64(enc.Nanoseconds())/msgs)
		decs = append(decs, float64(dec.Nanoseconds())/msgs)
	}
	return median(encs), median(decs)
}

// sampleTxns returns n transactions of the workload's generator, round
// robin over the sites.
func sampleTxns(wl workload.Config, seed uint64, n int) []*workload.Txn {
	gen := workload.NewGenerator(wl, seed)
	txns := make([]*workload.Txn, n)
	for i := range txns {
		txns[i] = gen.Next(i % wl.Sites)
	}
	return txns
}

// execProbe measures a benchmark-owned exec.Loop: every millisecond it
// posts one closure, timed from the Post call until the closure starts, and
// schedules one timer a millisecond ahead, timed from its due time until
// the callback starts. Each Post and Schedule call is a span on laneExec.
type execProbe struct {
	tr     *tracer
	postUs []float64
	lateUs []float64
	spans  []span
	stop   chan struct{}
	done   chan struct{}
}

// startExecProbe starts the probe on its own goroutine; stop ends it and
// waits for it and its loop.
func startExecProbe(tr *tracer) *execProbe {
	p := &execProbe{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *execProbe) run() {
	defer close(p.done)
	const period = time.Millisecond
	loop := exec.NewLoop()
	var post, late []float64 // appended on the loop goroutine only
	for {
		select {
		case <-p.stop:
			time.Sleep(3 * period) // let the last timer fire
			loop.Stop()
			p.postUs, p.lateUs = post, late
			return
		default:
		}
		t0 := time.Now()
		loop.Post(func() { post = append(post, float64(time.Since(t0).Nanoseconds())/1e3) })
		t1 := time.Now()
		due := t1.Add(period)
		loop.Schedule(period.Seconds(), func() { late = append(late, float64(time.Since(due).Nanoseconds())/1e3) })
		t2 := time.Now()
		p.spans = append(p.spans,
			span{name: "exec.Loop.Post", start: p.tr.at(t0), end: p.tr.at(t1), lane: laneExec},
			span{name: "exec.Loop.Schedule", start: p.tr.at(t1), end: p.tr.at(t2), lane: laneExec})
		time.Sleep(period)
	}
}

// finish stops the probe, adds its spans under parent and returns the
// median post latency and timer lateness in microseconds with the number
// of samples behind each.
func (p *execProbe) finish(parent int) (postUs, lateUs float64, nPost, nLate int) {
	close(p.stop)
	<-p.done
	for _, s := range p.spans {
		s.parent = parent
		p.tr.add(s)
	}
	return median(p.postUs), median(p.lateUs), len(p.postUs), len(p.lateUs)
}
