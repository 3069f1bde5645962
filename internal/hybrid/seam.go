package hybrid

// The seams of the transaction core (DESIGN.md §13). The lifecycle layers —
// classify/route (engine.go), local execution (local_path.go), central
// execution (central_path.go), the commit protocol (commit.go), and update
// propagation (propagate.go) — never touch an event queue or a socket
// directly: every "read the clock" and "do this later" goes through the
// exec seams, and every interaction between the tiers is a typed Msg handed
// to a Transport and delivered to the receiving partition's handler
// (core.deliver). There is one implementation of the protocol and two
// executors of it: the discrete-event simulator (exec.Sim over internal/sim
// for time; comm.Network or shardNet for transport) and the live cluster
// (internal/cluster: one partition per process on an exec.Loop, messages
// encoded as netx frames over TCP).

import (
	"hybriddb/internal/exec"
	"hybriddb/internal/lock"
	"hybriddb/internal/workload"
)

// Clock reads the current time of the executor a handler runs on.
type Clock = exec.Clock

// Scheduler is the clock-plus-timer seam each partition (a local site or the
// central complex) schedules its lifecycle continuations on.
type Scheduler = exec.Scheduler

// MsgKind names one protocol message of §2.
type MsgKind uint8

// Protocol messages. Ship, AuthReply and Update travel a site's uplink to
// the central complex; the rest travel a downlink to one site.
const (
	// MsgShip carries a transaction's input (Spec) to central for execution.
	MsgShip MsgKind = iota + 1
	// MsgAuthReq asks a master site to authenticate Elems/Modes for Txn.
	MsgAuthReq
	// MsgAuthReply answers an authentication request: NACK, or the locks
	// were seized.
	MsgAuthReply
	// MsgRelease frees Txn's seized authentication locks at a site.
	MsgRelease
	// MsgUpdate carries committed updates (Elems) from a site to central.
	MsgUpdate
	// MsgUpdateAck acknowledges an update so the site lowers the coherence
	// counts of Elems.
	MsgUpdateAck
	// MsgReply tells a shipped transaction's home site that Txn completed.
	MsgReply
)

// Uplink reports whether the kind travels site -> central.
func (k MsgKind) Uplink() bool { return k == MsgShip || k == MsgAuthReply || k == MsgUpdate }

// Msg is one protocol message between a site and the central complex. Only
// the fields of its kind are set. It carries values, never a pointer into a
// partition's runtime state: both tiers find a transaction's run by Txn, so
// a Msg can cross a wire.
type Msg struct {
	Kind   MsgKind
	NACK   bool // MsgAuthReply
	ClassB bool // MsgReply
	// Site is the site end of the link: the sender of an uplink message,
	// the receiver of a downlink one.
	Site  int
	Txn   int64
	Spec  *workload.Txn // MsgShip
	Elems []uint32      // MsgAuthReq, MsgUpdate, MsgUpdateAck
	Modes []lock.Mode   // MsgAuthReq
	View  View          // downlink messages: central state at send time
}

// View is the central state piggybacked on every downlink message, the
// feedback a site's routing strategy consumes (§4.2). The instant it was
// taken is not part of the message: it is transport metadata, the sentAt
// the transport hands to the receiver with the message. A simulated link
// knows the exact send instant; a TCP link estimates it as receipt minus
// the configured one-way delay.
type View struct {
	Queue    int // central CPU queue length, job in service included
	InSystem int // transactions at central in any phase
	Locks    int // locks held at central
}

// Transport carries messages over the star network between the sites and
// the central complex: FIFO per link, every link with the same one-way
// delay, each message delivered to the receiving partition's handler with
// its send instant. The sequential engine uses comm.Network (one event
// queue), the sharded engine shardNet (messages cross shard boundaries
// through the Group synchronizer), and the live cluster encodes messages as
// netx frames over TCP.
type Transport interface {
	ToCentral(m Msg)
	ToSite(m Msg)
	MessagesSent() uint64
}
