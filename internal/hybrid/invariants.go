package hybrid

// The conservation/invariant self-check, wired onto the observer bus: when
// Config.SelfCheck is set, an invariantObserver subscribes and audits the
// engine on every SelfCheck event (periodic during the run, once at the
// end).

import (
	"fmt"

	"hybriddb/internal/hybrid/obs"
)

// invariantObserver runs checkInvariants on each SelfCheck bus event.
type invariantObserver struct{ e *Engine }

// OnEvent implements obs.Observer.
func (o invariantObserver) OnEvent(ev obs.Event) {
	if ev.Kind == obs.SelfCheck {
		o.e.checkInvariants()
	}
}

// checkInvariants verifies cross-component consistency; enabled by
// Config.SelfCheck. It panics on violation (a simulator bug, never a
// workload condition).
func (e *Engine) checkInvariants() {
	var present uint64
	for _, ls := range e.sites {
		ls.locks.CheckInvariants()
		if ls.inSystem < 0 {
			panic(fmt.Sprintf("hybrid: negative inSystem at site %d", ls.idx))
		}
		// running holds the local executions and the arrival records of
		// shipped transactions still awaiting their reply.
		if awaiting := ls.shipStarted - ls.replyArrived; uint64(ls.running.Len()) != uint64(ls.inSystem)+awaiting {
			panic(fmt.Sprintf("hybrid: site %d running=%d inSystem=%d awaiting replies=%d",
				ls.idx, ls.running.Len(), ls.inSystem, awaiting))
		}
		present += uint64(ls.inSystem)
	}
	e.central.locks.CheckInvariants()
	if e.central.running.Len() != e.central.inSystem {
		panic(fmt.Sprintf("hybrid: central running=%d inSystem=%d",
			e.central.running.Len(), e.central.inSystem))
	}
	present += uint64(e.central.inSystem)
	generated, completed, shipping, replying := e.flowCounts()
	total := completed + present + shipping + replying
	if total != generated {
		panic(fmt.Sprintf("hybrid: conservation violated: generated=%d accounted=%d "+
			"(completed=%d present=%d shipping=%d replying=%d)",
			generated, total, completed, present, shipping, replying))
	}
}
