// Package obs is the engine's observer bus: every instrumentation concern —
// metrics accumulation, span reconstruction, protocol-event dumps, periodic
// queue samples, invariant self-checks — subscribes to one Observer
// interface instead of being wired directly into the transaction lifecycle.
// Each protocol step is one Event of one Kind, emitted once; the payload is
// numeric, and renderers (Event.String, Event.Annotation) turn it into text.
//
// Kinds come in two groups:
//
//   - Lifecycle kinds (arrivals, commits, replies, aborts, authentication
//     answers, update application, samples) are emitted unconditionally and
//     delivered to every observer; the metrics observer folds them into the
//     run's Result.
//   - Detail kinds (lock requests and grants, lock-wait begins, reruns,
//     authentication requests and seizures, update propagation and
//     acknowledgement; Kind.Detail) are high-frequency steps delivered only
//     to detail observers. The engine builds them only while one is
//     subscribed (Bus.HasDetail), so the hot loop pays nothing for them when
//     nobody listens.
package obs

// Kind classifies bus events.
type Kind uint8

// Lifecycle event kinds.
const (
	// MeasureStart opens the measurement window: observers reset or arm
	// their accumulators at Event.At.
	MeasureStart Kind = iota + 1
	// Lifecycle events name their transaction in Txn where there is one.
	//
	// TxnArrive is one admitted transaction and its routing decision:
	// ClassB says which class, Shipped the decision (always true for class
	// B), and Value the staleness of the central-state view at decision
	// time (class A only).
	TxnArrive
	// TxnLocalCommit is a class A transaction committing at its home site:
	// Site is the site index, Value the response time, Aux its execution
	// attempts.
	TxnLocalCommit
	// TxnReply is a completion reply delivered at the origin site for a
	// centrally executed transaction: ClassB says which class, Value the
	// response time.
	TxnReply
	// LockWaitEnd closes one blocking lock wait; Value is its duration.
	LockWaitEnd
	// AuthRound is one authentication round opened by a central commit;
	// Value is the number of sites asked.
	AuthRound
	// Abort causes, one kind per counter. The deadlock kinds carry the
	// requested element in Elem; AbortCentralInval has Aux 1 when the
	// invalidation landed during the authentication round, 0 when it was
	// found at the commit point.
	AbortDeadlockLocal
	AbortDeadlockCentral
	AbortLocalSeized
	AbortCentralNACK
	AbortCentralInval
	// ColdFetch is a central-path database call that referenced a cold
	// (non-replicated) element under partial replication and paid the
	// configured fetch delay before its lock request; Value is that delay.
	ColdFetch
	// ShipArrive is a shipped transaction admitted at the central complex:
	// Txn is the transaction, Value its home site.
	ShipArrive
	// AuthAck and AuthNack are a site's answer to an authentication
	// request: Site is the answering site, Txn the transaction, Value the
	// number of elements authenticated.
	AuthAck
	AuthNack
	// CentralCommit is a central execution committing: Txn is the
	// transaction, Aux its execution attempts.
	CentralCommit
	// UpdateApplied is an asynchronous update message applied at the central
	// complex: Txn is its last committer (0 for an epoch flush), Value the
	// number of elements, Aux the originating site.
	UpdateApplied
	// QueueSample is the periodic (1 Hz simulated) CPU queue observation:
	// Value is the central queue length, Aux the mean local queue length.
	QueueSample
	// SelfCheck asks invariant-checking observers to audit the engine now.
	SelfCheck

	// Detail kinds, delivered only to detail observers. Site is where the
	// step runs (-1 for the central complex).
	//
	// LockRequest is a lock request: Elem is the element, Value the
	// lock.Mode requested.
	LockRequest
	// LockGrant is a lock granted, immediately or after a wait: Elem is
	// the element.
	LockGrant
	// LockWaitBegin is a lock request queued behind a conflicting holder:
	// Elem is the element.
	LockWaitBegin
	// Rerun is an execution restarting after a cross-site abort: Value is
	// the attempt number it starts.
	Rerun
	// AuthRequest is an authentication request sent to Site: Value is the
	// number of elements it names.
	AuthRequest
	// AuthSeized is an authenticated lock seized from local holders: Elem
	// is the element, Value the number of victims marked for abort.
	AuthSeized
	// UpdatesPropagated is a local commit handing its updates to the
	// propagation layer: Value is the number of elements.
	UpdatesPropagated
	// UpdateAcked is the central acknowledgement of an update message
	// processed at its originating site.
	UpdateAcked

	// NumKinds bounds the kind values; arrays indexed by Kind use it.
	NumKinds
)

var kindNames = [NumKinds]string{
	MeasureStart:         "measure-start",
	TxnArrive:            "txn-arrive",
	TxnLocalCommit:       "txn-local-commit",
	TxnReply:             "txn-reply",
	LockWaitEnd:          "lock-wait-end",
	AuthRound:            "auth-round",
	AbortDeadlockLocal:   "abort-deadlock-local",
	AbortDeadlockCentral: "abort-deadlock-central",
	AbortLocalSeized:     "abort-local-seized",
	AbortCentralNACK:     "abort-central-nack",
	AbortCentralInval:    "abort-central-inval",
	ColdFetch:            "cold-fetch",
	ShipArrive:           "ship-arrive",
	AuthAck:              "auth-ack",
	AuthNack:             "auth-nack",
	CentralCommit:        "central-commit",
	UpdateApplied:        "update-applied",
	QueueSample:          "queue-sample",
	SelfCheck:            "self-check",
	LockRequest:          "lock-request",
	LockGrant:            "lock-granted",
	LockWaitBegin:        "lock-wait",
	Rerun:                "rerun",
	AuthRequest:          "auth-request",
	AuthSeized:           "auth-seized",
	UpdatesPropagated:    "update-propagated",
	UpdateAcked:          "update-acked",
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < NumKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind(?)"
}

// Detail reports whether k is a detail kind, delivered only to detail
// observers.
func (k Kind) Detail() bool { return k >= LockRequest && k < NumKinds }

// Event is one observation. Which payload fields are meaningful depends on
// Kind; unused fields are zero.
type Event struct {
	At   float64 // simulated time
	Kind Kind

	Txn  int64
	Site int // site index; -1 for the central complex
	Elem uint32

	ClassB  bool
	Shipped bool
	Value   float64
	Aux     float64
}

// Observer receives events from the engine. Implementations must not retain
// the event beyond the call unless they copy it (Event is a value type).
type Observer interface {
	OnEvent(Event)
}

// DetailObserver is an Observer that also wants the detail kinds.
// Bus.Subscribe detects it.
type DetailObserver interface {
	Observer
	WantDetail() bool
}

// Func adapts a plain function to an Observer.
type Func func(Event)

// OnEvent implements Observer.
func (f Func) OnEvent(e Event) { f(e) }

// Bus fans events out to subscribed observers. The zero value is ready to
// use; an empty bus drops everything.
type Bus struct {
	all    []Observer // receive every lifecycle event
	detail []Observer // additionally receive detail events
}

// Subscribe adds an observer. Observers implementing DetailObserver with
// WantDetail() == true also receive the detail kinds.
func (b *Bus) Subscribe(o Observer) {
	if o == nil {
		return
	}
	b.all = append(b.all, o)
	if d, ok := o.(DetailObserver); ok && d.WantDetail() {
		b.detail = append(b.detail, o)
	}
}

// HasDetail reports whether any subscribed observer wants detail events.
// Emitters check this before building one.
func (b *Bus) HasDetail() bool { return len(b.detail) > 0 }

// Emit delivers an event to its subscribers: a lifecycle event to every
// observer, a detail event to detail observers only.
func (b *Bus) Emit(e Event) {
	to := b.all
	if e.Kind.Detail() {
		to = b.detail
	}
	for _, o := range to {
		o.OnEvent(e)
	}
}
