package hybrid

// The site layer: runtime state of the local sites and the central computing
// complex, their server construction, and the strategy's view of them. No
// transaction-lifecycle logic lives here.

import (
	"hybriddb/internal/cpu"
	"hybriddb/internal/exec"
	"hybriddb/internal/flatmap"
	"hybriddb/internal/lock"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// localSite is one distributed system. In a sharded run every field below
// is owned by the site's shard worker: lifecycle events touching this site
// execute on its shard, and cross-tier interactions arrive as messages. The
// sequential engine uses the same ownership discipline with a single shard.
type localSite struct {
	idx   int
	sched exec.Dispatch // the executor this site's events run on (its shard clock in a simulation)
	cpu   *cpu.Server
	disks []*cpu.Server // empty: pure-delay I/O (the paper's assumption)
	locks *lock.Manager

	inSystem int // n_i: class A transactions present
	// running holds the runs this site owns: class A transactions executing
	// here, and shipped transactions awaiting their completion reply (found
	// by ID when it arrives).
	running *flatmap.Map[lock.ID, *txnRun]

	shippedOut int // class A transactions currently shipped from here

	// Stale view of the central state and the instant it was taken,
	// refreshed per the Feedback mode.
	view   View
	viewAt float64

	lastLocalRT   float64
	lastShippedRT float64

	// Batched asynchronous updates awaiting the next flush
	// (Config.UpdateBatchWindow > 0).
	pendingUpdates []uint32
	flushPending   bool
	lastBatched    int64 // the pending batch's last committer

	busyAtWarmup float64

	// txnFree recycles txnRun objects across this site's transactions. The
	// pool is per site (not per engine) so a sharded run never contends on
	// it: a run is taken at its home site and returns there when the
	// transaction completes (a local commit, or the reply of a shipped one).
	txnFree []*txnRun

	// specFree recycles workload.Txn specs the same way (generator runs only,
	// never replayed traces — those specs belong to the caller). A spec is
	// reused only after recycleTxnRun, by which point every in-flight message
	// payload derived from it has been copied out.
	specFree []*workload.Txn

	// updFree recycles the update-set slices that ride the asynchronous
	// update messages of §2. Unlike scratch buffers these live across the
	// propagate round trip: commit fills one, the message owns it in flight,
	// and the central acknowledgement hands it back to this pool (the ack
	// executes on this site's shard).
	updFree [][]uint32

	// arriveFn is the pre-bound Poisson-arrival callback (admit the next
	// generated transaction, schedule the following arrival), so steady-state
	// arrival scheduling allocates no closures.
	arriveFn func()

	// Conservation counters, owned by this site's shard and summed at
	// barriers/results: transactions admitted here, completed from here
	// (local commits and delivered replies), shipped inputs sent, and
	// completion replies received.
	generated    uint64
	completed    uint64
	shipStarted  uint64
	replyArrived uint64
}

// centralSite is the central computing complex; in a sharded run it owns
// shard 0.
type centralSite struct {
	sched exec.Dispatch
	cpu   *cpu.Server
	disks []*cpu.Server
	locks *lock.Manager

	inSystem int // n_c: transactions present (class B + shipped class A)
	running  *flatmap.Map[lock.ID, *txnRun]

	// txnFree recycles the central executions' runs. A shipped transaction
	// has one run at its home site (its arrival record) and one here (its
	// execution); neither crosses the network.
	txnFree []*txnRun

	busyAtWarmup float64

	// Conservation counters owned by the central shard: shipped inputs
	// received, completion replies sent.
	shipArrived  uint64
	replyStarted uint64

	// Central-shard scratch buffers, reused across events (never captured by
	// a closure or held across a message): the authentication fan-out's
	// touched-site set and the update application's holder walk.
	sitesBuf   []int
	holdersBuf []lock.ID
}

// takeUpdBuf pops a recycled update-set buffer from the site's pool, or
// returns nil (append then allocates the pool's first generation).
func (ls *localSite) takeUpdBuf() []uint32 {
	if n := len(ls.updFree); n > 0 {
		buf := ls.updFree[n-1]
		ls.updFree[n-1] = nil
		ls.updFree = ls.updFree[:n-1]
		return buf[:0]
	}
	return nil
}

// newDisks builds a disk bank; disks are modelled as unit-rate servers whose
// "instructions" equal the I/O time in microseconds-of-a-1MIPS-machine, so
// Submit(seconds*1e6) serves for exactly seconds.
func newDisks(s exec.Scheduler, n int) []*cpu.Server {
	if n <= 0 {
		return nil
	}
	disks := make([]*cpu.Server, n)
	for i := range disks {
		disks[i] = cpu.NewServer(s, 1)
	}
	return disks
}

// scheduleIO performs one I/O of the given duration keyed to elem: a pure
// delay under the paper's assumption, or an FCFS wait at the disk holding
// the element when a disk bank is configured.
func scheduleIO(s exec.Dispatch, disks []*cpu.Server, elem uint32, seconds float64, done func()) {
	if len(disks) == 0 {
		s.Schedule(seconds, done)
		return
	}
	disks[int(elem)%len(disks)].Submit(seconds*1e6, done)
}

// routingState assembles the strategy's view at the arrival site: local
// fields observed directly, central fields from the site's (possibly stale)
// view unless the feedback mode is ideal.
func (e *core) routingState(site int) routing.State {
	ls := e.sites[site]
	st := routing.State{
		Now:           ls.sched.Now(),
		Site:          site,
		LocalQueue:    ls.cpu.QueueLength(),
		LocalInSystem: ls.inSystem,
		LocalLocks:    ls.locks.LocksHeld(),
		LastLocalRT:   ls.lastLocalRT,
		LastShippedRT: ls.lastShippedRT,
	}
	if e.cfg.Feedback == FeedbackIdeal {
		st.CentralQueue = e.central.cpu.QueueLength()
		st.CentralInSystem = e.central.inSystem
		st.CentralLocks = e.central.locks.LocksHeld()
		st.ViewAge = 0
	} else {
		st.CentralQueue = ls.view.Queue
		st.CentralInSystem = ls.view.InSystem
		st.CentralLocks = ls.view.Locks
		st.ViewAge = ls.sched.Now() - ls.viewAt
	}
	return st
}

// siteUtilizations computes per-site CPU utilizations over the measurement
// window, for Result assembly.
func siteUtilizations(sites []*localSite, window float64) (perSite []float64, mean, max float64) {
	perSite = make([]float64, len(sites))
	var busy float64
	for i, ls := range sites {
		u := (ls.cpu.BusyTime() - ls.busyAtWarmup) / window
		perSite[i] = u
		busy += u
		if u > max {
			max = u
		}
	}
	return perSite, busy / float64(len(sites)), max
}
