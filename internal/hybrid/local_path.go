package hybrid

// The local execution path of the transaction lifecycle layer: class A
// transactions retained at their home site, from setup I/O through database
// calls, lock acquisition, and the local commit point of §2.

import (
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
)

// localPath runs class A transactions at their home site.
type localPath struct{ c *core }

// start admits a transaction to its home site: transaction initiation +
// message handling CPU, then the initial I/O (no locks held during either,
// §3.1).
func (p localPath) start(t *txnRun) {
	c := p.c
	ls := c.sites[t.spec.HomeSite]
	ls.inSystem++
	ls.running.Put(t.id(), t)
	ls.cpu.Submit(c.cfg.InstrOverhead, t.conts.setup)
}

// setupIO runs after the admission CPU burst: the initial I/O, no locks held.
func (p localPath) setupIO(t *txnRun) {
	c := p.c
	ls := c.sites[t.spec.HomeSite]
	scheduleIO(ls.sched, ls.disks, uint32(t.spec.ID), c.cfg.SetupIOTime, t.conts.setupIO)
}

// call performs database call i of a locally running transaction: CPU burst,
// then lock acquisition, then (first run only) the I/O.
func (p localPath) call(t *txnRun, i int) {
	c := p.c
	if i >= c.cfg.CallsPerTxn {
		p.commit(t)
		return
	}
	t.callIdx = i
	c.sites[t.spec.HomeSite].cpu.Submit(c.cfg.InstrPerCall, t.conts.call)
}

// callBody is call callIdx's work after its CPU burst: the lock acquisition.
func (p localPath) callBody(t *txnRun) {
	c := p.c
	i := t.callIdx
	ls := c.sites[t.spec.HomeSite]
	elem, mode := t.spec.Elements[i], t.spec.Modes[i]
	if _, held := ls.locks.Holds(t.id(), elem); held {
		// Re-run retains locks across a cross-site abort (§3.1).
		p.afterLock(t, i)
		return
	}
	c.detail(obs.LockRequest, t.spec.ID, ls.idx, elem, float64(mode))
	switch ls.locks.Acquire(t.id(), elem, mode, t.conts.grant) {
	case lock.Granted:
		c.detail(obs.LockGrant, t.spec.ID, ls.idx, elem, 0)
		p.afterLock(t, i)
	case lock.Queued:
		t.phase = phaseLockWait
		t.lockWaitFrom = ls.sched.Now()
		c.detail(obs.LockWaitBegin, t.spec.ID, ls.idx, elem, 0)
	case lock.Deadlock:
		p.deadlockAbort(t, elem)
	}
}

// granted resumes call callIdx after a queued lock request was granted.
func (p localPath) granted(t *txnRun) {
	c := p.c
	c.recordLockWait(t)
	c.detail(obs.LockGrant, t.spec.ID, t.spec.HomeSite, t.spec.Elements[t.callIdx], 0)
	p.afterLock(t, t.callIdx)
}

func (p localPath) afterLock(t *txnRun, i int) {
	c := p.c
	if t.attempt == 1 {
		// First run: fetch the data from disk. Re-runs find all data in
		// memory (§3.1). conts.io advances to call callIdx+1.
		ls := c.sites[t.spec.HomeSite]
		scheduleIO(ls.sched, ls.disks, t.spec.Elements[i], c.cfg.IOTimePerCall, t.conts.io)
		return
	}
	p.call(t, i+1)
}

// commit is the commit point of a locally running class A transaction (§2):
// abort if marked; otherwise release locks, raise coherence counts on
// updated elements, and propagate the updates asynchronously — completing
// without waiting for the central acknowledgement.
func (p localPath) commit(t *txnRun) {
	c := p.c
	ls := c.sites[t.spec.HomeSite]
	if t.marked {
		c.observeAt(ls.sched.Now(), obs.Event{Kind: obs.AbortLocalSeized, Site: ls.idx, Txn: t.spec.ID})
		p.restart(t)
		return
	}
	// The update set rides the asynchronous update message, so it cannot be
	// scratch: propagate takes ownership, and the buffer returns to the
	// site's pool with the central acknowledgement.
	updates := t.spec.AppendUpdates(ls.takeUpdBuf())
	for _, elem := range t.spec.Elements {
		ls.locks.Release(t.id(), elem)
	}
	for _, elem := range updates {
		ls.locks.IncrCoherence(elem)
	}
	if len(updates) > 0 {
		c.detail(obs.UpdatesPropagated, t.spec.ID, ls.idx, 0, float64(len(updates)))
		c.prop.propagate(ls, t.spec.ID, updates)
	} else if updates != nil {
		ls.updFree = append(ls.updFree, updates)
	}
	now := ls.sched.Now()
	rt := now - t.arrivedAt
	t.phase = phaseDone
	ls.lastLocalRT = rt
	ls.inSystem--
	ls.running.Delete(t.id())
	ls.completed++
	c.observeAt(now, obs.Event{Kind: obs.TxnLocalCommit, Site: ls.idx, Txn: t.spec.ID, Value: rt, Aux: float64(t.attempt)})
	c.recycleTxnRun(t)
}

// restart re-runs a cross-site-aborted local transaction. Locks other than
// the seized ones are retained (§3.1); data is in memory.
func (p localPath) restart(t *txnRun) {
	c := p.c
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	c.detail(obs.Rerun, t.spec.ID, t.spec.HomeSite, 0, float64(t.attempt))
	c.sites[t.spec.HomeSite].sched.Schedule(c.cfg.RestartDelay, t.conts.restart)
}

// deadlockAbort handles a same-site deadlock on a request for elem: the
// requester aborts and releases all locks (§4.1), then re-runs.
func (p localPath) deadlockAbort(t *txnRun, elem uint32) {
	c := p.c
	ls := c.sites[t.spec.HomeSite]
	c.observeAt(ls.sched.Now(), obs.Event{Kind: obs.AbortDeadlockLocal, Site: ls.idx, Txn: t.spec.ID, Elem: elem})
	ls.locks.ReleaseAll(t.id())
	t.marked = false
	t.attempt++
	t.phase = phaseExecuting
	ls.sched.Schedule(c.cfg.RestartDelay, t.conts.restart)
}
