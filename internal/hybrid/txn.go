package hybrid

// Shared transaction-lifecycle state: the per-transaction phase machine that
// both execution paths (local_path.go, central_path.go) and the commit
// protocol (commit.go) drive.

import (
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// txnPhase tracks where a transaction is in its lifecycle, for invariant
// checking and abort bookkeeping.
type txnPhase uint8

const (
	phaseSetup txnPhase = iota + 1
	phaseExecuting
	phaseLockWait
	phaseAuthWait
	phaseDone
	phaseShipped // a shipped transaction's arrival record at its home site
)

// txnRun is the runtime state of one transaction at one partition: its
// execution at the home site or the central complex, or — for a shipped
// transaction — its arrival record at the home site.
type txnRun struct {
	spec      *workload.Txn
	arrivedAt float64
	shipped   bool // a central execution (fixed per pooled object)
	attempt   int  // 1 on the first execution
	phase     txnPhase

	// marked is the §2 "marked for abort" flag, set by a committed
	// conflicting action at the other tier (authentication seizure for
	// local transactions, asynchronous-update invalidation for central
	// ones). Checked at commit.
	marked bool

	// Authentication state (central executions only).
	authPending int
	authNACK    bool
	authSeized  []int // sites where locks were seized and must be released

	lockWaitFrom float64 // set while phase == phaseLockWait

	// callIdx is the database call the continuation chain is executing.
	callIdx int
	// conts holds the run's pre-bound continuations, allocated once per
	// pooled object and preserved across recycling. The per-call hot path
	// (CPU burst -> lock acquisition -> I/O, times CallsPerTxn) schedules
	// only these stored funcs, so it allocates no closures. A pooled object
	// serves one tier for life, so they are bound to that tier's path.
	conts txnConts
}

// txnConts is the set of pre-bound lifecycle continuations of one txnRun.
type txnConts struct {
	setup   func() // after the admission CPU burst: the setup I/O
	setupIO func() // after the setup I/O: begin the database calls
	call    func() // after call callIdx's CPU burst: its lock acquisition
	grant   func() // a waited-for lock was granted
	io      func() // after call callIdx's I/O: advance to the next call
	restart func() // re-run from call 0 after RestartDelay
	fetched func() // after a cold-fetch delay: call callIdx's lock request
}

func (t *txnRun) id() lock.ID { return lock.ID(t.spec.ID) }

// takeRun pops a run off a pool (or allocates the pool's first generation
// with continuations bound to the given tier) and initializes it for spec.
// Pools are per partition, so a sharded run never contends on one.
func (c *core) takeRun(pool *[]*txnRun, shipped bool, spec *workload.Txn, now float64) *txnRun {
	var t *txnRun
	if n := len(*pool); n > 0 {
		t = (*pool)[n-1]
		*pool = (*pool)[:n-1]
		seized := t.authSeized[:0]
		conts := t.conts
		*t = txnRun{authSeized: seized, conts: conts}
	} else {
		t = &txnRun{}
		c.bindContinuations(t, shipped)
	}
	t.shipped = shipped
	t.spec = spec
	t.arrivedAt = now
	t.attempt = 1
	t.phase = phaseSetup
	return t
}

// bindContinuations allocates a run's lifecycle continuations, once per
// pooled object, on the execution path of its tier.
func (c *core) bindContinuations(t *txnRun, shipped bool) {
	if shipped {
		p := c.remote
		t.conts = txnConts{
			setup:   func() { p.setupIO(t) },
			setupIO: func() { t.phase = phaseExecuting; p.call(t, 0) },
			call:    func() { p.callBody(t) },
			grant:   func() { p.granted(t) },
			io:      func() { p.call(t, t.callIdx+1) },
			restart: func() { p.call(t, 0) },
			fetched: func() { p.lockBody(t) },
		}
		return
	}
	// Cold fetches happen only on the central path (the local path reads
	// its own partition's primary copy), so a local run has no fetched.
	p := c.local
	t.conts = txnConts{
		setup:   func() { p.setupIO(t) },
		setupIO: func() { t.phase = phaseExecuting; p.call(t, 0) },
		call:    func() { p.callBody(t) },
		grant:   func() { p.granted(t) },
		io:      func() { p.call(t, t.callIdx+1) },
		restart: func() { p.call(t, 0) },
	}
}

// recycleTxnRun returns a completed home-site run to its pool. Callers
// must guarantee no live reference remains — the run is off the running
// map and every message still in flight names the transaction by ID — and,
// in a sharded run, that the call executes on the home shard (completion
// always does: local commits finish at home, shipped ones with the reply).
func (c *core) recycleTxnRun(t *txnRun) {
	ls := c.sites[t.spec.HomeSite]
	if c.recycleSpecs {
		// Generator-produced specs are pooled for NextInto; replayed specs
		// belong to the SetTrace caller and must survive the run. The
		// central execution released its reference before the reply left.
		ls.specFree = append(ls.specFree, t.spec)
	}
	t.spec = nil
	ls.txnFree = append(ls.txnFree, t)
}

// recordLockWait closes a blocking lock wait (if one was open) and returns
// the transaction to the executing phase. The wait is attributed to the
// partition whose lock table blocked the transaction — the central complex
// for shipped executions, the home site otherwise — and stamped with that
// partition's clock (the one the closing event runs on).
func (e *core) recordLockWait(t *txnRun) {
	if t.phase == phaseLockWait {
		if t.shipped {
			now := e.central.sched.Now()
			e.observeAt(now, obs.Event{Kind: obs.LockWaitEnd, Site: -1, Value: now - t.lockWaitFrom})
		} else {
			ls := e.sites[t.spec.HomeSite]
			now := ls.sched.Now()
			e.observeAt(now, obs.Event{Kind: obs.LockWaitEnd, Site: ls.idx, Value: now - t.lockWaitFrom})
		}
	}
	t.phase = phaseExecuting
}
