package main

// The live workload: an in-process cluster of one central node and two
// sites on loopback TCP, in overhead mode, driven by the benchmark's own
// closed-loop client.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb/internal/cluster"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/netx"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// Sizes of the live workload.
const (
	liveSites     = 2      // one client connection per site
	liveDepth     = 4      // outstanding requests per connection (closed loop)
	liveBoots     = 51     // cluster boots timed for setup_s; the last one carries the load
	liveWarmTxns  = 10_000 // transactions before the first measured window
	warmTimeout   = 60 * time.Second
	bootTimeout   = 30 * time.Second
	sliceEvery    = 250 * time.Millisecond // throughput slices of the measured window
	callTimeout   = 10 * time.Second
	sampleEvery   = 100 * time.Millisecond
	tracedWindowA = 2 * time.Second // untraced, for the cluster-layer metrics
	tracedWindowB = time.Second     // traced: client spans and Decide spans
)

// liveConfig is overhead mode: DefaultLiveConfig with both processors
// 10^4 times faster and no emulated I/O or link delay, so a response time
// measures the system's own cost.
func liveConfig(seed uint64) hybrid.Config {
	cfg := cluster.DefaultLiveConfig()
	cfg.Sites = liveSites
	cfg.LocalMIPS *= 1e4
	cfg.CentralMIPS *= 1e4
	cfg.IOTimePerCall, cfg.SetupIOTime, cfg.CommDelay = 0, 0, 0
	cfg.Seed = seed
	return cfg
}

func liveStrategy() routing.Strategy { return routing.QueueThreshold{Theta: 0} }

// liveCluster is one booted cluster.
type liveCluster struct {
	central *cluster.Central
	sites   []*cluster.Site
}

// boot starts the central node and the sites and returns once every site's
// WaitReady has returned and the central node has answered every site's
// Hello, with spans around each call. WaitReady alone is not enough: it
// returns when the uplink is connected, before the central node has
// registered the site, and a message the central node sends to an
// unregistered site is dropped (README.md, "Defects found while sizing").
func boot(ctx context.Context, tr *tracer, parent int, cfg hybrid.Config, strategy func(site int) routing.Strategy) (*liveCluster, error) {
	lc := &liveCluster{}
	sp := tr.begin("cluster.StartCentral", parent)
	c, err := cluster.StartCentral(cfg, "127.0.0.1:0")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	lc.central = c
	for i := 0; i < cfg.Sites; i++ {
		sp := tr.begin("cluster.StartSite", parent)
		s, err := cluster.StartSite(cfg, i, c.Addr(), "127.0.0.1:0", strategy(i))
		tr.end(sp)
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.sites = append(lc.sites, s)
	}
	for _, s := range lc.sites {
		sp := tr.begin("cluster.Site.WaitReady", parent)
		err := s.WaitReady(ctx)
		tr.end(sp)
		if err != nil {
			lc.close()
			return nil, err
		}
	}
	sp = tr.begin("cluster.Metrics.Snapshot", parent)
	err = lc.waitRegistered(ctx)
	tr.end(sp)
	if err != nil {
		lc.close()
		return nil, err
	}
	return lc, nil
}

// waitRegistered polls the central node's registry until it has sent one
// HelloAck per site; it sends each right after registering the site.
func (lc *liveCluster) waitRegistered(ctx context.Context) error {
	const acks = `wire_msgs_out_total{type="hello-ack"}`
	for int(lc.central.Metrics().Snapshot()[acks]) < len(lc.sites) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("central node did not register every site: %w", ctx.Err())
		case <-time.After(20 * time.Microsecond):
		}
	}
	return nil
}

func (lc *liveCluster) close() {
	for _, s := range lc.sites {
		s.Close()
	}
	lc.central.Close()
}

// snapshot scrapes every node's registry: index 0 is the central node,
// index 1+i site i.
func (lc *liveCluster) snapshot() []map[string]float64 {
	out := []map[string]float64{lc.central.Metrics().Snapshot()}
	for _, s := range lc.sites {
		out = append(out, s.Metrics().Snapshot())
	}
	return out
}

// sumPrefix adds every series of m whose name starts with prefix (all label
// sets of one family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			sum += v
		}
	}
	return sum
}

// ---- The closed-loop client.

// txnTimes are the instants of one traced transaction at the client:
// generation, encoding, the Call, and decoding.
type txnTimes struct {
	id                        int64
	gen, enc, call, ret, done time.Time
}

// windowStats is one worker's tally for one window.
type windowStats struct {
	attempted, failed int64
	rtMs              []float64
	traced            []txnTimes
}

// phaseStop ends the load. Other values of the client's phase word are
// window indices: a caller reads the phase before each request and files
// the request under it. Window 0 is the warm-up.
const phaseStop int32 = -1

// client is the benchmark's load generator: liveDepth callers per site
// connection, each sending its next transaction only after the reply to
// the previous one (a closed loop). Response time is measured around
// netx.Conn.Call and kept as raw samples.
type client struct {
	conns   []*netx.Conn
	gen     *workload.Generator
	genMu   []sync.Mutex // the generator's per-site streams are not safe for concurrent use
	phase   atomic.Int32
	traced  int32 // the window whose transactions are traced
	resume  chan struct{}
	parked  sync.WaitGroup // callers done with their warm-up share
	workers sync.WaitGroup
	serve   sync.WaitGroup
	done    atomic.Int64    // successful transactions outside the warm-up
	stats   [][]windowStats // [worker][window]
}

func dialClient(cfg hybrid.Config, lc *liveCluster, genSeed uint64, windows int, traced int32) (*client, error) {
	c := &client{
		gen:    workload.NewGenerator(cfg.WorkloadConfig(), genSeed),
		genMu:  make([]sync.Mutex, cfg.Sites),
		traced: traced,
		resume: make(chan struct{}),
	}
	for _, s := range lc.sites {
		nc, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
		if err != nil {
			c.close()
			return nil, err
		}
		conn := netx.NewConn(nc, netx.Options{})
		c.conns = append(c.conns, conn)
		c.serve.Add(1)
		go func() {
			defer c.serve.Done()
			_ = conn.Serve(nil) // ends when the connection closes; Calls see the reason
		}()
	}
	c.stats = make([][]windowStats, len(c.conns)*liveDepth)
	for i := range c.stats {
		c.stats[i] = make([]windowStats, windows)
	}
	return c, nil
}

// warmUp launches the callers in window 0 and returns once they have sent
// liveWarmTxns transactions between them and parked, so nothing is in
// flight.
func (c *client) warmUp() error {
	c.phase.Store(0)
	c.parked.Add(len(c.stats))
	for i := range c.stats {
		c.workers.Add(1)
		go c.worker(i%len(c.conns), c.stats[i], liveWarmTxns/len(c.stats))
	}
	parked := make(chan struct{})
	go func() {
		c.parked.Wait()
		close(parked)
	}()
	select {
	case <-parked:
		return nil
	case <-time.After(warmTimeout):
		return fmt.Errorf("warm-up did not finish within %v", warmTimeout)
	}
}

// begin releases the parked callers into window w.
func (c *client) begin(w int32) {
	c.phase.Store(w)
	close(c.resume)
}

func (c *client) worker(site int, stats []windowStats, warm int) {
	defer c.workers.Done()
	conn := c.conns[site]
	var t workload.Txn
	var buf []byte
	for {
		w := c.phase.Load()
		if w == phaseStop {
			return
		}
		if w == 0 && warm == 0 {
			c.parked.Done()
			<-c.resume
			continue
		}
		if w == 0 {
			warm--
		}
		traced := w == c.traced
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		var tt txnTimes
		if traced {
			tt.gen = time.Now()
		}
		c.genMu[site].Lock()
		c.gen.NextInto(site, &t)
		c.genMu[site].Unlock()
		if traced {
			tt.enc = time.Now()
		}
		buf = netx.AppendTxn(buf[:0], &t)
		t0 := time.Now()
		f, err := conn.Call(ctx, netx.MsgSubmit, buf)
		t1 := time.Now()
		cancel()
		ok := err == nil
		if ok {
			res, err := netx.DecodeResult(f.Payload)
			classB := t.Class == workload.ClassB
			ok = err == nil && res.Txn == t.ID && res.ClassB == classB && (res.Shipped || !classB)
		}
		st := &stats[w]
		st.attempted++
		if !ok {
			st.failed++
			continue
		}
		st.rtMs = append(st.rtMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if w > 0 {
			c.done.Add(1)
		}
		if traced {
			tt.id, tt.call, tt.ret, tt.done = t.ID, t0, t1, time.Now()
			st.traced = append(st.traced, tt)
		}
	}
}

// stop ends the load and waits for the callers' last replies.
func (c *client) stop() {
	c.phase.Store(phaseStop)
	c.workers.Wait()
}

func (c *client) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.serve.Wait()
}

// window merges the workers' tallies of window w.
func (c *client) window(w int) windowStats {
	var out windowStats
	for _, ws := range c.stats {
		s := ws[w]
		out.attempted += s.attempted
		out.failed += s.failed
		out.rtMs = append(out.rtMs, s.rtMs...)
		out.traced = append(out.traced, s.traced...)
	}
	return out
}

// sent returns the requests sent over all windows.
func (c *client) sent() int64 {
	var n int64
	for _, ws := range c.stats {
		for _, s := range ws {
			n += s.attempted
		}
	}
	return n
}

// checkConservation checks the registry identities after the load has
// drained: per site generated == completed_local + replies + in_flight, at
// the central node ship_arrived == commits + in_system, nothing left in
// flight, and every request the client sent generated at a site.
func (r *run) checkConservation(lc *liveCluster, sent int64) {
	snaps := lc.snapshot()
	cm := snaps[0]
	arrived, commits, inSys := cm["central_ship_arrived_total"], cm["central_commits_total"], cm["central_in_system"]
	r.chk.ok(arrived == commits+inSys, "central: ship_arrived %v != commits %v + in_system %v", arrived, commits, inSys)
	r.chk.ok(inSys == 0, "central: %v transactions in system after drain", inSys)
	var generated float64
	for i, m := range snaps[1:] {
		g, cl, rep, inf := m["site_generated_total"], m["site_completed_local_total"], m["site_replies_delivered_total"], m["site_in_flight"]
		r.chk.ok(g == cl+rep+inf, "site %d: generated %v != completed_local %v + replies %v + in_flight %v", i, g, cl, rep, inf)
		r.chk.ok(inf == 0, "site %d: %v submissions in flight after drain", i, inf)
		generated += g
	}
	r.chk.ok(generated == float64(sent), "sites generated %v transactions, the client sent %d", generated, sent)
}

func runLive(r *run) error {
	if r.trace {
		return traceLive(r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	cfg := liveConfig(r.seed)
	tr := newTracer() // spans of the untraced run are discarded
	base := liveHeap()
	var setup []float64
	var lc *liveCluster
	for i := 0; i < liveBoots; i++ {
		t0 := time.Now()
		b, err := boot(ctx, tr, -1, cfg, func(int) routing.Strategy { return liveStrategy() })
		if err != nil {
			return err
		}
		setup = append(setup, since(t0))
		if i < liveBoots-1 {
			b.close()
		} else {
			lc = b
		}
	}
	defer lc.close()
	c, err := dialClient(cfg, lc, r.seed, 2, -1)
	if err != nil {
		return err
	}
	if err := c.warmUp(); err != nil {
		return err
	}
	heap := (liveHeap() - base) / 1e6
	end := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	t0 := time.Now()
	c.begin(1)
	var slices []float64
	for last, lastN := t0, int64(0); time.Now().Before(end); {
		time.Sleep(min(sliceEvery, time.Until(end)))
		now, n := time.Now(), c.done.Load()
		slices = append(slices, float64(n-lastN)/now.Sub(last).Seconds())
		last, lastN = now, n
	}
	window := since(t0)
	c.stop()
	r.checkConservation(lc, c.sent())
	c.close()

	all := c.window(0)
	m := c.window(1)
	r.chk.bulk(all.attempted+m.attempted, all.failed+m.failed, "transactions")
	done := float64(len(m.rtMs))
	r.e2e("txn_per_s", done/window, "1/s", len(m.rtMs))
	r.e2e("rt_p50_ms", quantile(m.rtMs, 0.5), "ms", len(m.rtMs))
	r.e2e("setup_s", median(setup), "s", len(setup))
	r.e2e("retained_heap_mb", heap, "MB", 1)
	r.e2e("live_rt_p99_ms", quantile(m.rtMs, 0.99), "ms", len(m.rtMs))
	r.e2e("live_rt_mean_ms", mean(m.rtMs), "ms", len(m.rtMs))
	r.note("txn_per_s is live_txn_per_s and rt_p50_ms is live_rt_p50_ms: closed loop, %d connections x %d outstanding, %.3f s window after %d warm-up transactions",
		liveSites, liveDepth, window, liveWarmTxns)
	r.note("percentiles are exact over the window's %d raw samples (client send to reply, netx.Conn.Call)", len(m.rtMs))
	r.note("retained_heap_mb is the live heap of the booted cluster after the warm-up, idle, less the heap before the first boot")
	r.note("throughput per %v slice: %.0f", sliceEvery, slices)
	return nil
}

// traceLive is the traced run of the live workload: boot, warm-up, an
// untraced window A and a traced window B, with an exec.Loop probe and a
// metrics sampler running through both windows. Cluster-layer metrics come
// from registry deltas over window A; spans, Decide timings and the
// tracing overhead from window B.
func traceLive(r *run) error {
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	cfg := liveConfig(r.seed)
	tr := newTracer()
	root := tr.begin("bench.run", -1)
	ts := newTimedStrategy(liveStrategy(), tr)
	bootSpan := tr.begin("bench.boot", root)
	lc, err := boot(ctx, tr, bootSpan, cfg, func(i int) routing.Strategy { return ts.ForSite(i, 0) })
	tr.end(bootSpan)
	if err != nil {
		return err
	}
	defer lc.close()
	c, err := dialClient(cfg, lc, r.seed, 3, 2)
	if err != nil {
		return err
	}
	if err := c.warmUp(); err != nil {
		return err
	}

	loadSpan := tr.begin("bench.load", root)
	probe := startExecProbe(tr)
	smp := startSampler(tr, lc)
	snapSpan := tr.begin("cluster.Metrics.Snapshot", loadSpan)
	before := lc.snapshot()
	tr.end(snapSpan)
	smp.window.Store(1)
	tA := time.Now()
	c.begin(1)
	time.Sleep(tracedWindowA)
	smp.window.Store(0)
	snapSpan = tr.begin("cluster.Metrics.Snapshot", loadSpan)
	after := lc.snapshot()
	tr.end(snapSpan)
	tB := time.Now()
	ts.record.Store(true)
	c.phase.Store(2)
	time.Sleep(tracedWindowB)
	tEnd := time.Now()
	c.stop()
	ts.record.Store(false)
	centralQ, siteQ, nSamples := smp.finish(loadSpan)
	post, late, nPost, nLate := probe.finish(loadSpan)
	tr.end(loadSpan)
	r.checkConservation(lc, c.sent())
	c.close()
	lc.close() // before the standalone probes below; closing again on return is harmless

	for w := 0; w < 3; w++ {
		s := c.window(w)
		r.chk.bulk(s.attempted, s.failed, fmt.Sprintf("transactions of window %d", w))
	}
	a, b := c.window(1), c.window(2)
	tpsA := float64(len(a.rtMs)) / tB.Sub(tA).Seconds()
	tpsB := float64(len(b.rtMs)) / tEnd.Sub(tB).Seconds()
	r.layer("trace.overhead_pct", 100*(tpsA-tpsB)/tpsA)
	r.note("window A (untraced): %.0f txn/s; window B (traced): %.0f txn/s", tpsA, tpsB)

	// Client spans of window B: one tree per transaction.
	var encNs, decNs []float64
	for _, t := range b.traced {
		txn := tr.add(span{name: "bench.txn", start: tr.at(t.gen), end: tr.at(t.done), parent: loadSpan, txn: t.id, lane: t.id})
		tr.add(span{name: "workload.NextInto", start: tr.at(t.gen), end: tr.at(t.enc), parent: txn, txn: t.id, lane: t.id})
		tr.add(span{name: "netx.AppendTxn", start: tr.at(t.enc), end: tr.at(t.call), parent: txn, txn: t.id, lane: t.id})
		tr.add(span{name: "netx.Conn.Call", start: tr.at(t.call), end: tr.at(t.ret), parent: txn, txn: t.id, lane: t.id})
		tr.add(span{name: "netx.DecodeResult", start: tr.at(t.ret), end: tr.at(t.done), parent: txn, txn: t.id, lane: t.id})
		encNs = append(encNs, float64(t.call.Sub(t.enc).Nanoseconds()))
		decNs = append(decNs, float64(t.done.Sub(t.ret).Nanoseconds()))
	}
	r.note("client's own calls in window B: AppendTxn %.0f ns, DecodeResult with its checks %.0f ns (means over %d transactions, one clock read included)",
		mean(encNs), mean(decNs), len(b.traced))
	calls, decideNs, shipFrac := ts.collect(loadSpan)
	r.layer("routing.decide_calls", float64(calls))
	r.layer("routing.decide_ns", decideNs)
	r.layer("routing.ship_fraction", shipFrac)

	r.layer("exec.post_us", post)
	r.layer("exec.timer_late_us", late)
	r.note("exec probe under load: %d posts, %d timers", nPost, nLate)

	// Cluster layers: registry deltas over window A.
	delta := func(prefix string) float64 {
		var sum float64
		for i := range after {
			sum += sumPrefix(after[i], prefix) - sumPrefix(before[i], prefix)
		}
		return sum
	}
	completed := delta("site_completed_local_total") + delta("site_replies_delivered_total")
	r.layer("netx.frames_per_txn", ratio(delta("net_frames_out"), completed))
	r.layer("netx.bytes_per_txn", ratio(delta("net_bytes_out"), completed))
	siteRt := ratio(delta("site_rt_seconds_sum"), delta("site_rt_seconds_count")) * 1e3
	r.layer("cluster.site_rt_mean_ms", siteRt)
	r.layer("cluster.client_overhead_ms", mean(a.rtMs)-siteRt)
	r.layer("cluster.rt_p99_ms", quantile(a.rtMs, 0.99))
	r.layer("cluster.central_queue_depth", centralQ)
	r.layer("cluster.site_queue_depth", siteQ)
	ship := delta(`site_route_decisions_total{route="ship"}`)
	local := delta(`site_route_decisions_total{route="local"}`)
	r.layer("cluster.ship_fraction", ratio(ship, ship+local))
	r.layer("cluster.aborts_per_txn", ratio(delta("site_aborts_total")+delta("central_aborts_total"), completed))
	r.layer("cluster.auth_rounds_per_txn", ratio(delta("central_auth_rounds_total"), completed))
	r.note("cluster layers over window A: %.0f completions at the sites, %d client samples (behind cluster.rt_p99_ms), %d gauge samples",
		completed, len(a.rtMs), nSamples)

	wl := cfg.WorkloadConfig()
	genSpan := tr.begin("bench.workload_replay", root)
	r.layer("workload.next_ns", replayWorkload(tr, genSpan, wl, cfg.Seed, int(c.sent())))
	tr.end(genSpan)
	codecSpan := tr.begin("bench.codec_roundtrip", root)
	enc, dec := codecRoundTrip(r, tr, codecSpan, sampleTxns(wl, r.seed, codecTxns), codecReps)
	tr.end(codecSpan)
	r.layer("netx.encode_ns", enc)
	r.layer("netx.decode_ns", dec)
	r.offPath("live")
	tr.end(root)
	return r.writeTrace(tr)
}

// sampler scrapes every node's registry every sampleEvery while window is
// nonzero and averages the CPU queue-depth gauges.
type sampler struct {
	tr      *tracer
	lc      *liveCluster
	window  atomic.Int32
	central []float64
	site    []float64
	spans   []span
	stop    chan struct{}
	done    chan struct{}
}

func startSampler(tr *tracer, lc *liveCluster) *sampler {
	s := &sampler{tr: tr, lc: lc, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		snaps := s.lc.snapshot()
		s.spans = append(s.spans, span{name: "cluster.Metrics.Snapshot", start: s.tr.at(t0), end: s.tr.at(time.Now()), lane: laneSampler})
		if s.window.Load() == 0 {
			continue
		}
		s.central = append(s.central, snaps[0]["central_cpu_queue_depth"])
		for _, m := range snaps[1:] {
			s.site = append(s.site, m["site_cpu_queue_depth"])
		}
	}
}

// finish stops the sampler, adds its spans under parent and returns the
// mean central and site queue depths over the sampled window with the
// number of central samples.
func (s *sampler) finish(parent int) (central, site float64, n int) {
	close(s.stop)
	<-s.done
	for _, sp := range s.spans {
		sp.parent = parent
		s.tr.add(sp)
	}
	return mean(s.central), mean(s.site), len(s.central)
}
