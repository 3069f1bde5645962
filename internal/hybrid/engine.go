package hybrid

import (
	"fmt"

	"hybriddb/internal/comm"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
	"hybriddb/internal/workload"
)

// Engine wires the substrates into the full hybrid system simulation. The
// protocol lives in the core (core.go) and its layers, each in its own file:
//
//   - site layer (site.go): localSite/centralSite state, views, and
//     disk/CPU server construction;
//   - transaction lifecycle layer (local_path.go, central_path.go,
//     commit.go): the txnRun phase machine and the cross-site
//     authenticate/ack/nack commit protocol;
//   - propagation layer (propagate.go): asynchronous update application and
//     the piggybacked central-state feedback routingState consumes;
//   - observer bus (obs package, wired here): metrics, spans, protocol
//     dumps, queue sampling, and invariant self-checks subscribe to engine
//     events.
//
// Engine holds every partition of the core and only constructs, wires, and
// drives the run loop — either the single-queue sequential loop (the
// bit-exact oracle) or the sharded conservative-parallel loop
// (parallel.go), selected at Run time. Both run modes use the same strategy
// instances, which is what makes their decision streams bit-identical, and
// Run arms the global chains (measurement start, self-check, queue sample,
// epoch flush) once for either loop through at and every.
type Engine struct {
	core
	strategy routing.Strategy

	simulator *sim.Simulator // the sequential event queue (shard 0's in a sharded run)
	generator *workload.Generator
	arrivals  []*workload.Arrivals
	nhpp      []*workload.NHPPArrivals // non-nil when RateSchedules is set

	// Sharded-run state (parallel.go); group is nil in a sequential run.
	group    *sim.Group
	parallel bool

	// wrap, when set, wraps the transport chosen at Run (WrapTransport).
	wrap func(Transport) Transport

	// The metrics observer is always subscribed (it produces the Result);
	// span collectors, dumps and self-checking subscribe on demand. externalObs counts
	// observers from outside the engine — their presence forces the
	// sequential loop, since only a single event queue produces one
	// globally ordered event stream.
	m           *metrics
	externalObs int

	// Recorded workload replay (SetTrace). When non-nil, replayTxns is
	// grouped by home site and replaces the Poisson generator.
	replayTxns [][]*workload.Txn
	replayGaps [][]float64

	horizon float64
}

// New builds an engine for the configuration and strategy.
func New(cfg Config, strategy routing.Strategy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("hybrid: nil strategy")
	}
	s := sim.New()
	root := rng.New(cfg.Seed)
	e := &Engine{
		strategy:  strategy,
		simulator: s,
		generator: workload.NewGenerator(cfg.WorkloadConfig(), root.Split().Uint64()),
		m:         newMetrics(cfg.SeriesBucket, cfg.Sites),
		horizon:   cfg.Warmup + cfg.Duration,
	}
	e.init(cfg, s)
	e.recycleSpecs = true
	e.newCentralSite(exec.Sim(s))
	e.network = simNet{comm.NewNetwork(s, cfg.Sites, cfg.CommDelay, e.simReceiver())}
	e.bus.Subscribe(e.m)
	if cfg.SelfCheck {
		e.bus.Subscribe(invariantObserver{e})
	}
	arrivalSeeds := root.Split()
	for i := 0; i < cfg.Sites; i++ {
		e.newLocalSite(i, exec.Sim(s))
		if cfg.RateSchedules != nil {
			e.nhpp = append(e.nhpp, workload.NewNHPPArrivals(cfg.RateSchedules[i], arrivalSeeds.Uint64()))
		} else {
			e.arrivals = append(e.arrivals, workload.NewArrivals(cfg.SiteRate(i), arrivalSeeds.Uint64()))
		}
	}
	if sl, ok := strategy.(routing.SiteLocal); ok {
		stratSeeds := root.Split()
		for i := range e.strategies {
			e.strategies[i] = sl.ForSite(i, stratSeeds.Uint64())
		}
	} else {
		for i := range e.strategies {
			e.strategies[i] = strategy
		}
	}
	return e, nil
}

// simNet is the sequential transport: the star network on the single event
// queue.
type simNet struct{ net *comm.Network[Msg] }

func (n simNet) ToCentral(m Msg)      { n.net.ToCentral(m.Site, m) }
func (n simNet) ToSite(m Msg)         { n.net.ToSite(m.Site, m) }
func (n simNet) MessagesSent() uint64 { return n.net.MessagesSent() }

// WrapTransport installs w around the transport the run uses (the
// sequential network or the sharded one), so every protocol message passes
// through w's ToCentral/ToSite on its way. Call before Run. w must forward
// each message to the transport it wraps, exactly once and in order; the
// wire-codec tests use it to run the engine over encoded messages.
func (e *Engine) WrapTransport(w func(Transport) Transport) { e.wrap = w }

// Subscribe attaches an observer to the engine's bus. Call before Run.
// Observers implementing obs.DetailObserver also receive the detail kinds;
// with none subscribed the engine never builds a detail event. An external observer pins the run to the sequential loop:
// only a single event queue delivers one globally ordered event stream.
func (e *Engine) Subscribe(o obs.Observer) {
	e.externalObs++
	e.bus.Subscribe(o)
}

// SetTrace replaces the synthetic workload with a recorded transaction
// stream (see workload.Capture/ReadAll): gaps[i] is the interarrival time of
// txns[i] at its home site, relative to the previous trace transaction of
// that site. Call before Run. Transactions beyond the simulation horizon
// simply never arrive.
func (e *Engine) SetTrace(txns []*workload.Txn, gaps []float64) error {
	if len(txns) != len(gaps) {
		return fmt.Errorf("hybrid: %d transactions but %d gaps", len(txns), len(gaps))
	}
	byTxns := make([][]*workload.Txn, e.cfg.Sites)
	byGaps := make([][]float64, e.cfg.Sites)
	seen := make(map[int64]struct{}, len(txns))
	for i, t := range txns {
		if t == nil {
			return fmt.Errorf("hybrid: nil transaction at index %d", i)
		}
		if t.HomeSite < 0 || t.HomeSite >= e.cfg.Sites {
			return fmt.Errorf("hybrid: transaction %d home site %d out of range", t.ID, t.HomeSite)
		}
		if gaps[i] < 0 {
			return fmt.Errorf("hybrid: negative gap at index %d", i)
		}
		if _, dup := seen[t.ID]; dup {
			return fmt.Errorf("hybrid: duplicate transaction id %d", t.ID)
		}
		seen[t.ID] = struct{}{}
		byTxns[t.HomeSite] = append(byTxns[t.HomeSite], t)
		byGaps[t.HomeSite] = append(byGaps[t.HomeSite], gaps[i])
	}
	e.replayTxns = byTxns
	e.replayGaps = byGaps
	e.recycleSpecs = false
	return nil
}

// Parallel reports whether the last (or, after setup, current) Run uses the
// sharded core. Meaningful after Run returns; used by tests and by the CLI
// to report the effective mode.
func (e *Engine) Parallel() bool { return e.parallel }

// Run executes the simulation and returns the measured result.
func (e *Engine) Run() Result {
	e.setupRunMode()
	if e.wrap != nil {
		e.network = e.wrap(e.network)
	}
	if e.replayTxns != nil {
		for i := range e.sites {
			e.scheduleReplay(i, 0)
		}
	} else {
		for i := range e.sites {
			e.scheduleArrival(i)
		}
	}
	// The global chains, armed once for both run modes. Arming order is the
	// sequential queue's tie-break among coinciding chain events, and the
	// barrier priorities replicate it in a sharded run.
	e.at(e.cfg.Warmup, prioMeasure, e.startMeasurement)
	if e.cfg.SelfCheck {
		e.every(10, prioSelfCheck, func(t float64) { e.observeAt(t, obs.Event{Kind: obs.SelfCheck}) })
	}
	e.every(1, prioSample, e.sampleQueues)
	// An epoch boundary drains the site-owned pending batches onto their
	// uplinks. In a sharded run the workers are parked at the barrier, so the
	// coordinator posts directly: a message sent from the boundary instant
	// meets the lookahead bound with equality.
	if e.cfg.EpochLength > 0 {
		e.every(e.cfg.EpochLength, epochFlushPrio(e.cfg.EpochLength), func(float64) { e.prop.flushEpoch() })
	}
	if e.parallel {
		e.group.Run(e.horizon)
	} else {
		e.simulator.RunUntil(e.horizon)
	}
	if e.cfg.SelfCheck {
		e.observeAt(e.horizon, obs.Event{Kind: obs.SelfCheck})
	}
	return e.result()
}

func (e *Engine) scheduleArrival(site int) {
	ls := e.sites[site]
	var gap float64
	if e.nhpp != nil {
		gap = e.nhpp[site].Next(ls.sched.Now())
	} else {
		gap = e.arrivals[site].Next()
	}
	if ls.sched.Now()+gap > e.horizon {
		return // no arrivals beyond the horizon
	}
	if ls.arriveFn == nil {
		ls.arriveFn = func() {
			var spec *workload.Txn
			if n := len(ls.specFree); n > 0 {
				spec = ls.specFree[n-1]
				ls.specFree[n-1] = nil
				ls.specFree = ls.specFree[:n-1]
			}
			e.admit(e.generator.NextInto(site, spec))
			e.scheduleArrival(site)
		}
	}
	ls.sched.Schedule(gap, ls.arriveFn)
}

func (e *Engine) scheduleReplay(site, idx int) {
	if idx >= len(e.replayTxns[site]) {
		return
	}
	ls := e.sites[site]
	gap := e.replayGaps[site][idx]
	if ls.sched.Now()+gap > e.horizon {
		return
	}
	ls.sched.Schedule(gap, func() {
		e.admit(e.replayTxns[site][idx])
		e.scheduleReplay(site, idx+1)
	})
}

// startMeasurement opens the measurement window: the site layer snapshots
// CPU busy time for utilization accounting, and observers arm themselves on
// the MeasureStart event. In a sharded run it executes at a barrier with
// every shard clock aligned on the warmup instant, so the busy-time
// snapshots (which integrate up to "now") read exactly as in the sequential
// run.
func (e *Engine) startMeasurement() {
	for _, ls := range e.sites {
		ls.busyAtWarmup = ls.cpu.BusyTime()
	}
	e.central.busyAtWarmup = e.central.cpu.BusyTime()
	e.observeAt(e.cfg.Warmup, obs.Event{Kind: obs.MeasureStart})
}

// sampleQueues is the 1 Hz queue-length observation; at is the sample
// instant (every shard clock sits on it in a sharded run, so the queue
// lengths read are the sequential ones).
func (e *Engine) sampleQueues(at float64) {
	total := 0
	for _, ls := range e.sites {
		total += ls.cpu.QueueLength()
	}
	e.observeAt(at, obs.Event{
		Kind:  obs.QueueSample,
		Value: float64(e.central.cpu.QueueLength()),
		Aux:   float64(total) / float64(len(e.sites)),
	})
}

// at schedules a global event at instant t: on the single event queue in a
// sequential run, as a barrier event of priority prio (every shard clock
// aligned on t) in a sharded one.
func (e *Engine) at(t float64, prio int, fn func()) {
	if e.parallel {
		e.group.ScheduleGlobalAt(t, prio, fn)
	} else {
		e.simulator.ScheduleAt(t, fn)
	}
}

// every runs fn(t) at t = interval, 2·interval, … up to the horizon. Each
// instant is built as last+interval, the float a chain rescheduling itself
// interval seconds after firing computes, and the next event is armed after
// fn returns so anything fn schedules keeps its place in the FIFO order.
func (e *Engine) every(interval float64, prio int, fn func(t float64)) {
	var arm func(last float64)
	arm = func(last float64) {
		next := last + interval
		if next > e.horizon {
			return
		}
		e.at(next, prio, func() {
			fn(next)
			arm(next)
		})
	}
	arm(0)
}

// flowCounts sums the conservation counters: transactions generated and
// completed, shipped inputs still travelling to the central site (sent minus
// received), and completion replies still travelling to their origin (sent
// minus delivered).
func (e *Engine) flowCounts() (generated, completed, shipping, replying uint64) {
	var shipped, delivered uint64
	for _, ls := range e.sites {
		generated += ls.generated
		completed += ls.completed
		shipped += ls.shipStarted
		delivered += ls.replyArrived
	}
	return generated, completed, shipped - e.central.shipArrived, e.central.replyStarted - delivered
}
