package hybrid

// The central execution path of the transaction lifecycle layer: class B
// transactions and shipped class A transactions running at the central
// complex, up to the commit protocol (commit.go).

import (
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// centralPath runs transactions at the central computing complex.
type centralPath struct{ c *core }

// ship sends a transaction's input to the central site. It executes at the
// home site, which keeps the run as the transaction's arrival record until
// the completion reply names it.
func (p centralPath) ship(t *txnRun) {
	c := p.c
	home := t.spec.HomeSite
	ls := c.sites[home]
	if t.spec.Class == workload.ClassA {
		ls.shippedOut++
	}
	ls.shipStarted++
	t.phase = phaseShipped
	ls.running.Put(t.id(), t)
	c.network.ToCentral(Msg{Kind: MsgShip, Site: home, Txn: t.spec.ID, Spec: t.spec})
}

// arrive admits a shipped transaction at the central complex with a run of
// its own. A transaction already present is a duplicate and is dropped.
func (p centralPath) arrive(spec *workload.Txn) bool {
	c := p.c
	cs := c.central
	if _, dup := cs.running.Get(lock.ID(spec.ID)); dup {
		return false
	}
	cs.shipArrived++
	now := cs.sched.Now()
	c.observeAt(now, obs.Event{Kind: obs.ShipArrive, Site: -1, Txn: spec.ID, Value: float64(spec.HomeSite)})
	t := c.takeRun(&cs.txnFree, true, spec, now)
	cs.inSystem++
	cs.running.Put(t.id(), t)
	cs.cpu.Submit(c.cfg.InstrOverhead, t.conts.setup)
	return true
}

// setupIO runs after the admission CPU burst: the initial I/O, no locks held.
func (p centralPath) setupIO(t *txnRun) {
	c := p.c
	scheduleIO(c.central.sched, c.central.disks, uint32(t.spec.ID), c.cfg.SetupIOTime, t.conts.setupIO)
}

func (p centralPath) call(t *txnRun, i int) {
	c := p.c
	if i >= c.cfg.CallsPerTxn {
		c.commit.begin(t)
		return
	}
	t.callIdx = i
	c.central.cpu.Submit(c.cfg.InstrPerCall, t.conts.call)
}

// callBody is call callIdx's work after its CPU burst. Under partial
// replication a first-execution reference to a cold element pays the fetch
// delay before its lock request (re-runs find the element cached, mirroring
// the first-run-only data I/O); then lockBody requests the lock.
func (p centralPath) callBody(t *txnRun) {
	c := p.c
	if c.partialRepl && t.attempt == 1 && c.isCold(t.spec.Elements[t.callIdx]) {
		c.observeAt(c.central.sched.Now(), obs.Event{Kind: obs.ColdFetch, Site: -1, Txn: t.spec.ID, Value: c.cfg.ColdFetchDelay})
		if c.cfg.ColdFetchDelay > 0 {
			c.central.sched.Schedule(c.cfg.ColdFetchDelay, t.conts.fetched)
			return
		}
		// A zero-delay fetch proceeds inline: scheduling a 0-delay event
		// would reorder same-time events relative to the full-replication
		// engine for no modelled reason.
	}
	p.lockBody(t)
}

// lockBody is the lock acquisition of call callIdx.
func (p centralPath) lockBody(t *txnRun) {
	c := p.c
	i := t.callIdx
	elem, mode := t.spec.Elements[i], t.spec.Modes[i]
	if _, held := c.central.locks.Holds(t.id(), elem); held {
		p.afterLock(t, i)
		return
	}
	c.detail(obs.LockRequest, t.spec.ID, -1, elem, float64(mode))
	switch c.central.locks.Acquire(t.id(), elem, mode, t.conts.grant) {
	case lock.Granted:
		c.detail(obs.LockGrant, t.spec.ID, -1, elem, 0)
		p.afterLock(t, i)
	case lock.Queued:
		t.phase = phaseLockWait
		t.lockWaitFrom = c.central.sched.Now()
		c.detail(obs.LockWaitBegin, t.spec.ID, -1, elem, 0)
	case lock.Deadlock:
		p.deadlockAbort(t, elem)
	}
}

// granted resumes call callIdx after a queued lock request was granted.
func (p centralPath) granted(t *txnRun) {
	c := p.c
	c.recordLockWait(t)
	c.detail(obs.LockGrant, t.spec.ID, -1, t.spec.Elements[t.callIdx], 0)
	p.afterLock(t, t.callIdx)
}

func (p centralPath) afterLock(t *txnRun, i int) {
	c := p.c
	if t.attempt == 1 {
		scheduleIO(c.central.sched, c.central.disks, t.spec.Elements[i], c.cfg.IOTimePerCall, t.conts.io)
		return
	}
	p.call(t, i+1)
}

// restart re-runs an aborted central transaction at the central site,
// retaining its surviving central locks (§3.1).
func (p centralPath) restart(t *txnRun) {
	c := p.c
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	c.detail(obs.Rerun, t.spec.ID, -1, 0, float64(t.attempt))
	c.central.sched.Schedule(c.cfg.RestartDelay, t.conts.restart)
}

// deadlockAbort handles a central deadlock on a request for elem.
func (p centralPath) deadlockAbort(t *txnRun, elem uint32) {
	c := p.c
	c.observeAt(c.central.sched.Now(), obs.Event{Kind: obs.AbortDeadlockCentral, Site: -1, Txn: t.spec.ID, Elem: elem})
	c.central.locks.ReleaseAll(t.id())
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	c.central.sched.Schedule(c.cfg.RestartDelay, t.conts.restart)
}
