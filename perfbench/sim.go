package main

// The simulator workloads: hybrid.Engine runs of one configuration, timed
// from outside.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
)

// simWorkload is one simulator configuration and routing policy.
type simWorkload struct {
	name    string
	sharded bool // the run must engage the sharded core (Engine.Parallel)
	// margin is the largest allowed relative gap between the measured
	// throughput (Result.Throughput) and the offered load.
	margin   float64
	config   func(seed uint64) hybrid.Config
	strategy func(cfg hybrid.Config) routing.Strategy
}

// skew1000 is the scale1000 shape (the paper's §4.1 system scaled 100x)
// with Zipf skew, partial central replication, an off-lattice cold-fetch
// delay and epoch-batched propagation, run on two shards.
var skew1000 = simWorkload{
	name:    "sim-skew1000-sharded",
	sharded: true,
	margin:  0.02,
	config: func(seed uint64) hybrid.Config {
		cfg := hybrid.DefaultConfig()
		cfg.Sites = 1000
		cfg.CentralMIPS = 1500
		cfg.Lockspace = 3_276_800
		cfg.SkewTheta = 0.8
		cfg.CentralHotFraction = 0.5
		cfg.ColdFetchDelay = 0.0137
		cfg.EpochLength = 0.25
		cfg.Shards = 2
		cfg.Warmup = 5
		cfg.Duration = 60
		cfg.Seed = seed
		return cfg
	},
	strategy: func(hybrid.Config) routing.Strategy { return routing.QueueThreshold{Theta: 0} },
}

// paper16 is the paper's §4.1 system at 16 sites and 3 txn/s per site,
// routed by min-average/nis, on the sequential core.
var paper16 = simWorkload{
	name:   "sim-paper16",
	margin: 0.03,
	config: func(seed uint64) hybrid.Config {
		cfg := hybrid.DefaultConfig()
		cfg.Sites = 16
		cfg.ArrivalRatePerSite = 3
		cfg.Warmup = 100
		cfg.Duration = 2000
		cfg.Seed = seed
		return cfg
	},
	strategy: func(cfg hybrid.Config) routing.Strategy {
		return routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}
	},
}

// Repetitions of a simulator run: at least minSeeds runs of Engine.Run on
// distinct seeds and then one more run of the first seed, which must
// reproduce its Result; and at least minSetups timings of hybrid.New, with
// extra constructions when one is cheap.
const (
	minSeeds  = 3
	minSetups = 101
)

// runSeeds returns the seeds of a run's simulations: the run's own seed
// first, then the successive outputs of rng.New(seed). Averaging over
// several seeds keeps a run's figures from hanging on one seed's queueing
// history.
func runSeeds(seed uint64) func() uint64 {
	src := rng.New(seed)
	first := true
	return func() uint64 {
		if first {
			first = false
			return seed
		}
		return src.Uint64()
	}
}

func runSim(r *run, w simWorkload) error {
	if r.trace {
		return traceSim(r, w)
	}
	base := liveHeap()
	start := time.Now()
	nextSeed := runSeeds(r.seed)
	var setup, rt, heap, rates []float64
	var completed uint64
	var runS float64
	var first string
	for rep := 0; ; rep++ {
		again := rep >= minSeeds && since(start) >= r.seconds // the final, repeated run
		cfg := w.config(nextSeed())
		if again {
			cfg = w.config(r.seed)
		}
		runtime.GC()
		t0 := time.Now()
		e, err := hybrid.New(cfg, w.strategy(cfg))
		if err != nil {
			return err
		}
		t1 := time.Now()
		res := e.Run()
		t2 := time.Now()
		heap = append(heap, (liveHeap()-base)/1e6)
		runtime.KeepAlive(e)
		setup = append(setup, t1.Sub(t0).Seconds())
		completed += res.Completed
		runS += t2.Sub(t1).Seconds()
		rates = append(rates, float64(res.Completed)/t2.Sub(t1).Seconds())
		rt = append(rt, t2.Sub(t0).Seconds()*1e3)
		r.checkResult(w, e, res, float64(cfg.Sites)*cfg.ArrivalRatePerSite)
		got := fmt.Sprintf("%#v", res)
		if rep == 0 {
			first = got
		}
		if again {
			r.chk.ok(got == first, "seed %d: the repeated run's Result differs from the first", r.seed)
			break
		}
	}
	// hybrid.New of a small configuration takes well under a millisecond:
	// time more constructions so the median is steady.
	cfg := w.config(r.seed)
	for len(setup) < minSetups && median(setup) < 0.01 {
		t0 := time.Now()
		e, err := hybrid.New(cfg, w.strategy(cfg))
		if err != nil {
			return err
		}
		setup = append(setup, since(t0))
		runtime.KeepAlive(e)
	}
	r.e2e("txn_per_s", float64(completed)/runS, "1/s", len(rt))
	r.e2e("rt_p50_ms", median(rt), "ms", len(rt))
	r.e2e("setup_s", median(setup), "s", len(setup))
	r.e2e("retained_heap_mb", median(heap), "MB", len(heap))
	r.note("txn_per_s is sim_txn_per_s: Result.Completed summed over %d simulations (%d seeds, the first repeated) over their host seconds of Engine.Run",
		len(rt), len(rt)-1)
	r.note("rt_p50_ms is the host time to one Result (hybrid.New + Engine.Run), median of %d simulations", len(rt))
	r.note("committed transactions per host second of each simulation: %.0f", rates)
	return nil
}

// checkResult checks one run's outputs: the sharded core engaged when the
// workload requires it, transactions are conserved, and the measured
// throughput is within the workload's margin of the offered load.
func (r *run) checkResult(w simWorkload, e *hybrid.Engine, res hybrid.Result, offered float64) {
	r.chk.ok(e.Parallel() == w.sharded, "Engine.Parallel() = %v, want %v", e.Parallel(), w.sharded)
	inSystem := res.Completed + res.InSystemAtEnd + res.InFlightShip + res.InFlightReply
	r.chk.ok(res.Completed > 0 && res.Generated == inSystem,
		"conservation: generated %d != completed %d + in system %d + in flight %d + %d",
		res.Generated, res.Completed, res.InSystemAtEnd, res.InFlightShip, res.InFlightReply)
	r.chk.ok(math.Abs(res.Throughput/offered-1) <= w.margin,
		"throughput %.2f txn/s is more than %.0f%% from the offered %.2f", res.Throughput, 100*w.margin, offered)
}

// lockCounter counts blocking lock waits and completions in the
// measurement window of a sequential run.
type lockCounter struct {
	on             bool
	waits, commits uint64
}

// OnEvent implements obs.Observer.
func (c *lockCounter) OnEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.MeasureStart:
		c.on = true
	case obs.LockWaitEnd:
		if c.on {
			c.waits++
		}
	case obs.TxnLocalCommit, obs.TxnReply:
		if c.on {
			c.commits++
		}
	}
}

// timedRun is one constructed and run engine with its host timings.
type timedRun struct {
	e           *hybrid.Engine
	res         hybrid.Result
	runS        float64
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	resultPrint string
}

// simPass constructs and runs an engine under spans named after the calls,
// reading the runtime's allocation counters around Run. prepare, when not
// nil, runs between construction and Run.
func simPass(tr *tracer, parent int, cfg hybrid.Config, strategy routing.Strategy, prepare func(*hybrid.Engine)) (timedRun, int, error) {
	runtime.GC()
	sp := tr.begin("hybrid.New", parent)
	e, err := hybrid.New(cfg, strategy)
	tr.end(sp)
	if err != nil {
		return timedRun{}, 0, err
	}
	if prepare != nil {
		prepare(e)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runSpan := tr.begin("hybrid.Engine.Run", parent)
	t2 := time.Now()
	res := e.Run()
	t3 := time.Now()
	tr.end(runSpan)
	runtime.ReadMemStats(&m1)
	return timedRun{
		e: e, res: res,
		runS:    t3.Sub(t2).Seconds(),
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:    m1.NumGC - m0.NumGC,
		resultPrint: fmt.Sprintf("%#v", res),
	}, runSpan, nil
}

// traceSim is the traced run of a simulator workload. After an untimed
// warm-up pass it makes four passes over the same configuration and seed:
// plain (runtime counters around Run), traced (a timing wrapper around the
// routing strategy), the twin in the other run mode (sharded against
// sequential, for sim.group_speedup) and a sequential pass with a
// lock-wait observer. All four must produce the identical Result. It then
// times the workload generator, the wire codec on the workload's
// transactions and an idle exec.Loop.
func traceSim(r *run, w simWorkload) error {
	cfg := w.config(r.seed)
	offered := float64(cfg.Sites) * cfg.ArrivalRatePerSite
	tr := newTracer()
	root := tr.begin("bench.run", -1)

	// An untimed pass first, so the timed passes all start with a grown
	// heap and warm caches.
	warmSpan := tr.begin("bench.pass.warmup", root)
	if _, _, err := simPass(tr, warmSpan, cfg, w.strategy(cfg), nil); err != nil {
		return err
	}
	tr.end(warmSpan)

	plainSpan := tr.begin("bench.pass.plain", root)
	plain, _, err := simPass(tr, plainSpan, cfg, w.strategy(cfg), nil)
	tr.end(plainSpan)
	if err != nil {
		return err
	}
	r.checkResult(w, plain.e, plain.res, offered)
	res, parallel := plain.res, plain.e.Parallel()
	plain.e = nil
	done := float64(res.Completed)
	r.layer("hybrid.run_s", plain.runS)
	r.layer("hybrid.allocs_per_txn", float64(plain.mallocs)/done)
	r.layer("hybrid.alloc_bytes_per_txn", float64(plain.allocBytes)/done)
	r.layer("hybrid.gc_cycles", float64(plain.gcCycles))

	tracedSpan := tr.begin("bench.pass.traced", root)
	ts := newTimedStrategy(w.strategy(cfg), tr)
	ts.record.Store(true)
	traced, runSpan, err := simPass(tr, tracedSpan, cfg, ts, nil)
	tr.end(tracedSpan)
	if err != nil {
		return err
	}
	r.checkResult(w, traced.e, traced.res, offered)
	r.chk.ok(traced.resultPrint == plain.resultPrint, "traced run: Result differs from the plain run")
	calls, decideNs, shipFrac := ts.collect(runSpan)
	r.layer("routing.decide_calls", float64(calls))
	r.layer("routing.decide_ns", decideNs)
	r.layer("trace.overhead_pct", 100*(traced.runS-plain.runS)/plain.runS)
	r.chk.ok(math.Abs(shipFrac-res.ShipFraction) < 0.01,
		"wrapped strategy shipped %.4f of its decisions, Result.ShipFraction %.4f", shipFrac, res.ShipFraction)
	traced.e = nil

	// The twin runs in the other mode: sequential for a sharded workload,
	// two shards for a sequential one.
	twinCfg := cfg
	twinCfg.Shards = 2
	if w.sharded {
		twinCfg.Shards = 0
	}
	twinSpan := tr.begin("bench.pass.twin", root)
	twin, _, err := simPass(tr, twinSpan, twinCfg, w.strategy(cfg), nil)
	tr.end(twinSpan)
	if err != nil {
		return err
	}
	r.chk.ok(twin.e.Parallel() == !w.sharded, "twin: Engine.Parallel() = %v, want %v", twin.e.Parallel(), !w.sharded)
	r.chk.ok(twin.resultPrint == plain.resultPrint, "sharded and sequential Results differ (Shards %d vs %d)", cfg.Shards, twinCfg.Shards)
	seqS, shardS := plain.runS, twin.runS
	if w.sharded {
		seqS, shardS = twin.runS, plain.runS
	}
	r.layer("sim.group_speedup", seqS/shardS)
	shardedEngaged := parallel
	if !w.sharded {
		shardedEngaged = twin.e.Parallel()
	}
	r.note("the sharded run engaged the sharded core: %v; its Result equals the sequential one bit for bit: %v",
		shardedEngaged, twin.resultPrint == plain.resultPrint)
	twin.e = nil

	obsCfg := cfg
	obsCfg.Shards = 0
	lc := &lockCounter{}
	obsSpan := tr.begin("bench.pass.observed", root)
	observed, _, err := simPass(tr, obsSpan, obsCfg, w.strategy(cfg), func(e *hybrid.Engine) { e.Subscribe(lc) })
	tr.end(obsSpan)
	if err != nil {
		return err
	}
	r.chk.ok(observed.resultPrint == plain.resultPrint, "observed run: Result differs from the plain run")
	window := float64(res.CompletedLocalA + res.CompletedShippedA + res.CompletedClassB)
	r.chk.ok(float64(lc.commits) == window, "observer counted %d completions in the window, Result %v", lc.commits, window)
	observed.e = nil

	r.layer("cpu.util_central", res.UtilCentral)
	r.layer("cpu.util_local_mean", res.UtilLocalMean)
	r.layer("cpu.queue_central", res.MeanCentralQueue)
	r.layer("cpu.queue_local", res.MeanLocalQueue)
	r.layer("lock.wait_mean_s", res.MeanLockWait)
	r.layer("lock.waits_per_txn", ratio(float64(lc.waits), window))
	aborts := float64(res.TotalAborts())
	r.layer("hybrid.commit_ratio", ratio(window, window+aborts))
	r.layer("hybrid.aborts_per_txn", ratio(aborts, window))
	r.layer("comm.msgs_per_txn", float64(res.MessagesSent)/done)
	r.layer("hybrid.auth_rounds_per_txn", ratio(float64(res.AuthRounds), window))
	r.layer("hybrid.cold_fetches_per_txn", ratio(float64(res.ColdFetches), window))
	r.layer("routing.ship_fraction", res.ShipFraction)

	wl := cfg.WorkloadConfig()
	genSpan := tr.begin("bench.workload_replay", root)
	r.layer("workload.next_ns", replayWorkload(tr, genSpan, wl, cfg.Seed, int(res.Generated)))
	tr.end(genSpan)

	codecSpan := tr.begin("bench.codec_roundtrip", root)
	enc, dec := codecRoundTrip(r, tr, codecSpan, sampleTxns(wl, r.seed, codecTxns), codecReps)
	tr.end(codecSpan)
	r.layer("netx.encode_ns", enc)
	r.layer("netx.decode_ns", dec)

	execSpan := tr.begin("bench.exec_probe", root)
	probe := startExecProbe(tr)
	time.Sleep(idleProbe)
	post, late, nPost, nLate := probe.finish(execSpan)
	tr.end(execSpan)
	r.layer("exec.post_us", post)
	r.layer("exec.timer_late_us", late)
	r.note("exec probe on an idle host: %d posts, %d timers", nPost, nLate)
	r.offPath("sim")
	tr.end(root)
	return r.writeTrace(tr)
}

// Sizes of the standalone layer probes.
const (
	codecTxns = 2000
	codecReps = 5
	idleProbe = 500 * time.Millisecond
)

// writeTrace derives the layers' self times from the spans and writes the
// spans out.
func (r *run) writeTrace(tr *tracer) error {
	r.rec.SelfMs = tr.selfMs()
	r.rec.SpanCount = len(tr.spans)
	if r.out == "" {
		return nil
	}
	r.rec.SpanFile = fmt.Sprintf("%s/%s-seed%d.spans.json", r.out, r.workload, r.seed)
	dropped, err := tr.write(r.rec.SpanFile, "perfbench "+r.workload)
	if err != nil {
		return err
	}
	if dropped > 0 {
		r.note("span file holds the first events only: %d events over the recorder's cap were dropped", dropped)
	}
	return nil
}
