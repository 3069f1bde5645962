// Package comm models the long-haul communications network between the
// distributed sites and the central complex: point-to-point links with a
// fixed one-way delay, carrying typed messages to a receiver. Deliveries on
// a link are FIFO — the protocol of §2 requires that the asynchronous update
// messages from a local site are processed at the central site in the order
// they were originated, and a fixed-delay link preserves order by
// construction (the kernel breaks same-instant ties in scheduling order).
package comm

import (
	"fmt"

	"hybriddb/internal/sim"
)

// inFlight is one message on a link with its send instant.
type inFlight[M any] struct {
	m      M
	sentAt float64
}

// Link is a unidirectional channel with fixed propagation delay that hands
// each message of type M, with the instant it was sent, to a receiver.
type Link[M any] struct {
	simulator *sim.Simulator
	delay     float64
	recv      func(m M, sentAt float64)

	sent      uint64
	delivered uint64

	// pending is a circular FIFO of in-flight messages (power-of-two
	// length, head the oldest, n in flight): Send pushes the message and
	// schedules deliverFn (bound once at construction), which pops the
	// front. Matching pops to messages needs no per-message closure because
	// the pairing is positional — every delivery event sits exactly delay
	// ahead of its send and the kernel breaks same-instant ties in
	// scheduling order, so delivery events fire in send order.
	pending   []inFlight[M]
	head, n   int
	deliverFn func()
}

// NewLink returns a link with the given one-way delay in seconds that
// delivers to recv.
func NewLink[M any](s *sim.Simulator, delay float64, recv func(m M, sentAt float64)) *Link[M] {
	if s == nil {
		panic("comm: nil simulator")
	}
	if delay < 0 {
		panic(fmt.Sprintf("comm: negative delay %v", delay))
	}
	if recv == nil {
		panic("comm: nil receiver")
	}
	l := &Link[M]{simulator: s, delay: delay, recv: recv}
	l.deliverFn = l.deliverNext
	return l
}

// Delay returns the link's one-way delay.
func (l *Link[M]) Delay() float64 { return l.delay }

// Send delivers m to the receiver one propagation delay from now.
// Successive sends are delivered in send order.
func (l *Link[M]) Send(m M) {
	if l.n == len(l.pending) {
		grown := make([]inFlight[M], max(8, 2*len(l.pending)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.pending[(l.head+i)&(len(l.pending)-1)]
		}
		l.pending, l.head = grown, 0
	}
	l.pending[(l.head+l.n)&(len(l.pending)-1)] = inFlight[M]{m: m, sentAt: l.simulator.Now()}
	l.n++
	l.sent++
	l.simulator.Schedule(l.delay, l.deliverFn)
}

// deliverNext pops the oldest in-flight message and hands it over.
func (l *Link[M]) deliverNext() {
	f := l.pending[l.head]
	l.pending[l.head] = inFlight[M]{}
	l.head = (l.head + 1) & (len(l.pending) - 1)
	l.n--
	l.delivered++
	l.recv(f.m, f.sentAt)
}

// Sent returns the number of messages sent on the link.
func (l *Link[M]) Sent() uint64 { return l.sent }

// Delivered returns the number of messages delivered.
func (l *Link[M]) Delivered() uint64 { return l.delivered }

// InFlight returns the number of messages sent but not yet delivered.
func (l *Link[M]) InFlight() uint64 { return l.sent - l.delivered }

// Network is the star topology of the hybrid architecture: every local site
// has an uplink to and a downlink from the central site, all with the same
// one-way delay D. Because every link shares D, delivering all of them
// through one FIFO is exactly per-link FIFO — a message sent earlier on any
// link is also due earlier — so the network keeps a single ring sized by
// the total traffic in flight rather than one per link.
type Network[M any] struct {
	sites int
	link  *Link[M]
}

// NewNetwork builds a star network for n local sites with one-way delay d;
// every message on every link is delivered to recv.
func NewNetwork[M any](s *sim.Simulator, n int, d float64, recv func(m M, sentAt float64)) *Network[M] {
	if n <= 0 {
		panic(fmt.Sprintf("comm: non-positive site count %d", n))
	}
	return &Network[M]{sites: n, link: NewLink(s, d, recv)}
}

// Sites returns the number of local sites.
func (n *Network[M]) Sites() int { return n.sites }

// Delay returns the one-way delay of every link.
func (n *Network[M]) Delay() float64 { return n.link.Delay() }

// ToCentral sends a message from local site i to the central site.
func (n *Network[M]) ToCentral(site int, m M) {
	n.check(site)
	n.link.Send(m)
}

// ToSite sends a message from the central site to local site i.
func (n *Network[M]) ToSite(site int, m M) {
	n.check(site)
	n.link.Send(m)
}

func (n *Network[M]) check(site int) {
	if site < 0 || site >= n.sites {
		panic(fmt.Sprintf("comm: site %d outside [0,%d)", site, n.sites))
	}
}

// MessagesSent returns the total number of messages sent on all links.
func (n *Network[M]) MessagesSent() uint64 { return n.link.Sent() }

// MessagesInFlight returns the total number of undelivered messages.
func (n *Network[M]) MessagesInFlight() uint64 { return n.link.InFlight() }
