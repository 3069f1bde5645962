package hybrid

// The cross-site commit protocol of §2: the optimistic authentication phase
// a centrally running transaction executes against the master sites of the
// data it locked, the ack/nack gathering at the central site, and the final
// commit or abort-and-restart.

import (
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// commitProtocol runs the authenticate/ack/nack commit sequence for central
// executions.
type commitProtocol struct{ c *core }

// begin is the commit point of a centrally running transaction: abort if
// invalidated, otherwise run the authentication phase against every master
// site of the data locked (§2).
func (p commitProtocol) begin(t *txnRun) {
	c := p.c
	cs := c.central
	if t.marked {
		p.abort(t, obs.AbortCentralInval, false)
		return
	}
	// Central-shard scratch: consumed by the fan-out loop below, never
	// captured by the messages it sends.
	sites := t.spec.AppendSitesTouched(c.wl, cs.sitesBuf[:0])
	cs.sitesBuf = sites
	t.phase = phaseAuthWait
	t.authPending = len(sites)
	t.authNACK = false
	t.authSeized = t.authSeized[:0]
	c.observeAt(cs.sched.Now(), obs.Event{Kind: obs.AuthRound, Site: -1, Txn: t.spec.ID, Value: float64(len(sites))})

	view := p.view()
	for _, site := range sites {
		var elems []uint32
		var modes []lock.Mode
		for j, elem := range t.spec.Elements {
			if c.wl.PartitionOf(elem) == site {
				elems = append(elems, elem)
				modes = append(modes, t.spec.Modes[j])
			}
		}
		c.detail(obs.AuthRequest, t.spec.ID, site, 0, float64(len(elems)))
		c.network.ToSite(Msg{Kind: MsgAuthReq, Site: site, Txn: t.spec.ID, Elems: elems, Modes: modes, View: view})
	}
}

// view captures the central state for piggybacking on a message being sent
// now (always from the central partition).
func (p commitProtocol) view() View {
	cs := p.c.central
	return View{Queue: cs.cpu.QueueLength(), InSystem: cs.inSystem, Locks: cs.locks.LocksHeld()}
}

// authenticate processes an authentication request at a local site: NACK if
// any element has in-flight asynchronous updates; otherwise seize the locks,
// marking conflicting local holders for abort, and ACK. Authentication
// messages always refresh the site's view of the central state (§4.2).
func (p commitProtocol) authenticate(m Msg, sentAt float64) {
	c := p.c
	ls := c.sites[m.Site]
	ls.refreshView(m.View, sentAt)
	nack := false
	for _, elem := range m.Elems {
		if ls.locks.Coherence(elem) != 0 {
			nack = true
			break
		}
	}
	kind := obs.AuthNack
	if !nack {
		kind = obs.AuthAck
		tid := lock.ID(m.Txn)
		for j, elem := range m.Elems {
			victims, ok := ls.locks.Seize(tid, elem, m.Modes[j])
			if !ok {
				// Unreachable: coherence was checked above and cannot
				// change within one event.
				panic("hybrid: seize failed after coherence check")
			}
			if len(victims) > 0 {
				c.detail(obs.AuthSeized, m.Txn, m.Site, elem, float64(len(victims)))
			}
			for _, v := range victims {
				p.markVictim(ls, v)
			}
		}
	}
	c.observeAt(ls.sched.Now(), obs.Event{Kind: kind, Site: m.Site, Txn: m.Txn, Value: float64(len(m.Elems))})
	c.network.ToCentral(Msg{Kind: MsgAuthReply, Site: m.Site, Txn: m.Txn, NACK: nack})
}

// markVictim marks the local holder of a seized lock for abort. A victim
// that is not executing here is either a shipped transaction's arrival
// record (whose mark nothing reads) or another central transaction's stale
// authentication lock — reachable only when that transaction was already
// invalidated mid-flight (two live central transactions cannot both pass
// their conflicting central lock phase), so it is already marked and needs
// nothing from us. Not consulting the central running map keeps this
// handler site-partition-pure.
func (p commitProtocol) markVictim(ls *localSite, v lock.ID) {
	if vt, ok := ls.running.Get(v); ok {
		vt.marked = true
	}
}

// reply folds one site's authentication answer into the transaction; when
// the last reply is in, the final commit gate of §2 decides: every site
// positive and the central locks not invalidated meanwhile. An answer for no
// transaction awaiting one is dropped.
func (p commitProtocol) reply(m Msg) bool {
	c := p.c
	t, ok := c.central.running.Get(lock.ID(m.Txn))
	if !ok || t.phase != phaseAuthWait {
		return false
	}
	if m.NACK {
		t.authNACK = true
	} else {
		t.authSeized = append(t.authSeized, m.Site)
	}
	t.authPending--
	if t.authPending > 0 {
		return true
	}
	if t.authNACK || t.marked {
		kind := obs.AbortCentralInval
		if t.authNACK {
			kind = obs.AbortCentralNACK
		}
		p.abort(t, kind, true)
		return true
	}
	p.finish(t)
	return true
}

// abort records a central cross-site abort of the given cause and re-runs
// the transaction. An abort ending an authentication round (inAuth, Aux 1
// on the event) first releases the locks the round seized.
func (p commitProtocol) abort(t *txnRun, kind obs.Kind, inAuth bool) {
	c := p.c
	ev := obs.Event{Kind: kind, Site: -1, Txn: t.spec.ID}
	if inAuth {
		ev.Aux = 1
	}
	c.observeAt(c.central.sched.Now(), ev)
	if inAuth {
		p.releaseAuthLocks(t, p.view())
	}
	c.remote.restart(t)
}

// releaseAuthLocks tells every site that seized locks for t to release them
// (abort and commit paths alike).
func (p commitProtocol) releaseAuthLocks(t *txnRun, view View) {
	for _, site := range t.authSeized {
		p.c.network.ToSite(Msg{Kind: MsgRelease, Site: site, Txn: t.spec.ID, View: view})
	}
	t.authSeized = t.authSeized[:0]
}

// release frees a transaction's seized authentication locks at a site.
func (p commitProtocol) release(m Msg, sentAt float64) {
	ls := p.c.sites[m.Site]
	if p.c.cfg.Feedback == FeedbackAllMessages {
		ls.refreshView(m.View, sentAt)
	}
	ls.locks.ReleaseAll(lock.ID(m.Txn))
}

// finish finalizes a central transaction: commit messages release the
// authentication locks and install the updates at the involved sites, the
// central locks are released, and the completion reply travels to the origin
// where the response time is recorded.
func (p commitProtocol) finish(t *txnRun) {
	c := p.c
	cs := c.central
	view := p.view()
	p.releaseAuthLocks(t, view)
	cs.locks.ReleaseAll(t.id())
	cs.inSystem--
	cs.running.Delete(t.id())
	t.phase = phaseDone
	c.observeAt(cs.sched.Now(), obs.Event{Kind: obs.CentralCommit, Site: -1, Txn: t.spec.ID, Aux: float64(t.attempt)})

	cs.replyStarted++
	c.network.ToSite(Msg{Kind: MsgReply, Site: t.spec.HomeSite, Txn: t.spec.ID, ClassB: t.spec.Class == workload.ClassB, View: view})
	// The execution is over: the spec stays with the home site's record.
	t.spec = nil
	cs.txnFree = append(cs.txnFree, t)
}

// delivered completes a shipped transaction at its home site when the
// reply arrives, recording the response time. A reply for no transaction
// awaiting one is dropped.
func (p commitProtocol) delivered(m Msg, sentAt float64) bool {
	c := p.c
	ls := c.sites[m.Site]
	t, ok := ls.running.Get(lock.ID(m.Txn))
	if !ok || t.phase != phaseShipped {
		return false
	}
	ls.running.Delete(t.id())
	ls.replyArrived++
	if c.cfg.Feedback == FeedbackAllMessages {
		ls.refreshView(m.View, sentAt)
	}
	now := ls.sched.Now()
	rt := now - t.arrivedAt
	ls.completed++
	classB := t.spec.Class != workload.ClassA
	if !classB {
		ls.shippedOut--
		ls.lastShippedRT = rt
	}
	c.observeAt(now, obs.Event{Kind: obs.TxnReply, ClassB: classB, Value: rt, Site: m.Site, Txn: m.Txn})
	// The reply is the last touch: the seized-lock releases were sent
	// earlier at the same instant over equal-delay links, so FIFO
	// tie-breaking guarantees they have already run.
	c.recycleTxnRun(t)
	return true
}
