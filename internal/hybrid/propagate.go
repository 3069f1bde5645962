package hybrid

// The propagation layer: asynchronous update flow from local commits to the
// central site (with optional batching), central-side invalidation and
// application, and the piggybacked central-state views whose feedback
// routingState consumes.

import "hybriddb/internal/hybrid/obs"

// refreshView installs a newer view of the central state taken at instant
// at (the message's send instant).
func (ls *localSite) refreshView(v View, at float64) {
	if at >= ls.viewAt {
		ls.view = v
		ls.viewAt = at
	}
}

// propagator carries committed updates between the tiers.
type propagator struct{ c *core }

// propagate ships a committed transaction's updates to the central site —
// immediately, batched per Config.UpdateBatchWindow, or accumulated to the
// next global epoch boundary per Config.EpochLength (the modes are mutually
// exclusive; Validate enforces it). Batching keeps per-link FIFO ordering:
// the flush sends one message on the same uplink that unbatched commits
// would use.
// Propagate owns the updates slice it is handed: an unbatched send parks it
// in the message and the acknowledgement returns it to the site's pool; a
// batched send folds it into the pending batch and frees it immediately.
func (p propagator) propagate(ls *localSite, txn int64, updates []uint32) {
	c := p.c
	switch {
	case c.cfg.UpdateBatchWindow > 0:
		p.buffer(ls, txn, updates, c.cfg.UpdateBatchWindow)
	case c.cfg.EpochLength > 0:
		// Epoch-batched (STAR-style) propagation: accumulate only. The
		// global epoch chain (armed in Engine.Run through Engine.every)
		// drains every site's pending batch at each boundary,
		// iterating sites in ascending index — the same order the sharded
		// round merge imposes on same-instant uplink arrivals — so the
		// simultaneous flushes every boundary produces reach the central
		// queue in one deterministic order in both run modes.
		p.stash(ls, updates)
	default:
		c.network.ToCentral(Msg{Kind: MsgUpdate, Site: ls.idx, Txn: txn, Elems: updates})
	}
}

// stash folds one commit's updates into the site's pending batch and frees
// the commit's own slice back to the site pool.
func (p propagator) stash(ls *localSite, updates []uint32) {
	if ls.pendingUpdates == nil {
		ls.pendingUpdates = ls.takeUpdBuf()
	}
	ls.pendingUpdates = append(ls.pendingUpdates, updates...)
	ls.updFree = append(ls.updFree, updates)
}

// buffer stashes one commit's updates and, on the batch's first commit,
// schedules the flush after the given delay on the site's own executor (the
// batch-window mode). The flushed message names the batch's last committer.
func (p propagator) buffer(ls *localSite, txn int64, updates []uint32, delay float64) {
	p.stash(ls, updates)
	ls.lastBatched = txn
	if ls.flushPending {
		return
	}
	ls.flushPending = true
	ls.sched.Schedule(delay, func() {
		batch := ls.pendingUpdates
		ls.pendingUpdates = nil
		ls.flushPending = false
		p.c.network.ToCentral(Msg{Kind: MsgUpdate, Site: ls.idx, Txn: ls.lastBatched, Elems: batch})
	})
}

// flushEpoch drains every site's pending epoch batch onto its uplink. It
// executes at a global epoch boundary — as a plain event in the sequential
// run, at a barrier with every shard clock on the boundary in a sharded run —
// and walks sites in ascending index, which is exactly the (edge index) order
// the sharded round merge gives the resulting same-instant central arrivals.
func (p propagator) flushEpoch() {
	for _, ls := range p.c.sites {
		if len(ls.pendingUpdates) == 0 {
			continue
		}
		batch := ls.pendingUpdates
		ls.pendingUpdates = nil
		p.c.network.ToCentral(Msg{Kind: MsgUpdate, Site: ls.idx, Elems: batch})
	}
}

// centralApply processes an asynchronous update message from a local site:
// invalidate central locks on the updated elements (mark holders for abort),
// install the update, and acknowledge so the site can lower its coherence
// counts.
func (p propagator) centralApply(m Msg) {
	if p.c.cfg.UpdateProcInstr > 0 {
		// Message handling consumes central CPU before the update applies
		// (per message, which is what batching amortises).
		p.c.central.cpu.Submit(p.c.cfg.UpdateProcInstr, func() { p.applyNow(m) })
		return
	}
	p.applyNow(m)
}

// applyNow performs the §2 invalidate-apply-acknowledge step of an
// asynchronous update message.
func (p propagator) applyNow(m Msg) {
	c := p.c
	cs := c.central
	for _, elem := range m.Elems {
		// Central-partition scratch walk; HoldersAppend copies the IDs out,
		// so the releases below cannot invalidate the iteration.
		cs.holdersBuf = cs.locks.HoldersAppend(elem, cs.holdersBuf[:0])
		for _, holder := range cs.holdersBuf {
			if vt, ok := cs.running.Get(holder); ok {
				vt.marked = true
			}
			cs.locks.Release(holder, elem)
		}
	}
	c.observeAt(cs.sched.Now(), obs.Event{Kind: obs.UpdateApplied, Site: -1, Txn: m.Txn,
		Value: float64(len(m.Elems)), Aux: float64(m.Site)})
	c.network.ToSite(Msg{Kind: MsgUpdateAck, Site: m.Site, Elems: m.Elems, View: c.commit.view()})
}

// acked lowers the coherence counts of an acknowledged update at its
// originating site.
func (p propagator) acked(m Msg, sentAt float64) {
	c := p.c
	ls := c.sites[m.Site]
	if c.cfg.Feedback == FeedbackAllMessages {
		ls.refreshView(m.View, sentAt)
	}
	for _, elem := range m.Elems {
		ls.locks.DecrCoherence(elem)
	}
	c.detail(obs.UpdateAcked, 0, m.Site, 0, 0)
	// The acknowledgement executes on the originating site's partition, so
	// it can hand the update buffer back to that site's pool.
	if m.Elems != nil {
		ls.updFree = append(ls.updFree, m.Elems)
	}
}
