package cluster

// The process plumbing every live node shares: the event loop its protocol
// partition runs on, the listener and its connections, the send half of
// the netx adapter (the node is the partition's hybrid.Transport), the
// receive half's validation, delay emulation and hand-off, and the
// observability the partition's bus feeds.

import (
	"errors"
	"net"
	"sync"

	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/flight"
	"hybriddb/internal/obsx/logx"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
)

// flightCapacity is each node's flight-recorder ring size: enough recent
// wire history to reconstruct a stuck handshake or reconnect storm.
const flightCapacity = 256

// sender is a link a node sends frames on: a site's reconnecting uplink, or
// a site's registered connection at central.
type sender interface {
	Send(msgType byte, reqID uint64, payload []byte) error
}

type node struct {
	cfg    hybrid.Config
	bounds netx.Bounds
	loop   *exec.Loop
	core   *hybrid.Node

	// link returns the connection a message to or from site travels on, or
	// nil when there is none. Called on the loop.
	link func(site int) sender

	// Loop-confined tallies: bus events by kind, messages sent, and sends
	// lost by frame type.
	events     [obs.NumKinds]uint64
	sent       uint64
	sendFailed [netx.MsgHelloAck + 1]uint64

	log   logx.Logger
	reg   *metrics.Registry
	wm    *wireMetrics
	net   *netx.Stats
	fr    *flight.Recorder
	spans *spans.Recorder

	ln     net.Listener
	wg     sync.WaitGroup
	connMu sync.Mutex
	conns  map[*netx.Conn]struct{}
	closed bool
}

// newNode validates the configuration and opens the listener; the caller
// attaches the protocol partition and starts serving.
func newNode(cfg hybrid.Config, addr, name string, rec *spans.Recorder) (*node, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	n := &node{
		cfg:    cfg,
		bounds: netx.BoundsOf(cfg),
		loop:   exec.NewLoop(),
		log:    logx.New(name),
		reg:    reg,
		wm:     newWireMetrics(reg),
		net:    &netx.Stats{},
		fr:     flight.NewRecorder(name, flightCapacity),
		spans:  rec,
		ln:     ln,
		conns:  make(map[*netx.Conn]struct{}),
	}
	registerNetStats(reg, n.net)
	return n, nil
}

// count tallies one bus event; the partition's observer calls it first.
func (n *node) count(ev obs.Event) {
	if int(ev.Kind) < len(n.events) {
		n.events[ev.Kind]++
	}
}

// serve accepts connections and reads each with handler until Close.
func (n *node) serve(handler netx.Handler) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			nc, err := n.ln.Accept()
			if err != nil {
				return // listener closed
			}
			conn := netx.NewConn(nc, netx.Options{Stats: n.net})
			n.connMu.Lock()
			if n.closed {
				n.connMu.Unlock()
				conn.Close()
				return
			}
			n.conns[conn] = struct{}{}
			n.connMu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				conn.Serve(handler)
				conn.Close()
				n.connMu.Lock()
				delete(n.conns, conn)
				n.connMu.Unlock()
			}()
		}
	}()
}

// transport is the node seen as its partition's hybrid.Transport.
type transport node

// ToCentral implements hybrid.Transport (a site's messages).
func (t *transport) ToCentral(m hybrid.Msg) { (*node)(t).send(m) }

// ToSite implements hybrid.Transport (central's messages).
func (t *transport) ToSite(m hybrid.Msg) { (*node)(t).send(m) }

// MessagesSent implements hybrid.Transport.
func (t *transport) MessagesSent() uint64 { return t.sent }

// send encodes one protocol message onto its link. A missing or dead link
// loses the message, as a real network would; the site's reconnect restores
// the link.
func (n *node) send(m hybrid.Msg) {
	t, payload := netx.EncodeMsg(nil, m)
	name := netx.MsgName(t)
	l := n.link(m.Site)
	if l == nil {
		n.sendFailed[t]++
		n.log.Errorf("dropping %s for unregistered site %d", name, m.Site)
		n.wm.Error("drop-unregistered")
		return
	}
	if err := l.Send(t, 0, payload); err != nil {
		n.sendFailed[t]++
		n.log.Errorf("%s send failed (txn %d): %v", name, m.Txn, err)
		n.wm.Error(name + "-send")
		return
	}
	n.sent++
	n.wm.Out(t)
	n.fr.Recordf(flight.Out, name, "txn %d site %d", m.Txn, m.Site)
}

// receive validates one protocol frame for this node (site is the node's
// own index, -1 at central) and hands it to the partition. A frame that
// fails is counted and its connection closed.
func (n *node) receive(conn *netx.Conn, f netx.Frame, site int) {
	m, err := netx.DecodeMsg(f.Type, f.Payload, n.bounds, site)
	if err != nil {
		n.reject(conn, f.Type, err)
		return
	}
	name := netx.MsgName(f.Type)
	n.fr.Recordf(flight.In, name, "txn %d site %d", m.Txn, m.Site)
	// The star network's link latency is emulated here at the receiver:
	// the handler runs one configured delay after arrival, and the message
	// counts as sent one delay before it is handled (the real transport
	// latency rides inside the delay, keeping the processes' clocks out of
	// the protocol).
	delay := n.cfg.CommDelay
	n.loop.Schedule(delay, func() {
		if !n.core.Deliver(m, n.loop.Now()-delay) {
			n.log.Errorf("stray %s for txn %d", name, m.Txn)
			n.wm.Error("stray-" + name)
		}
	})
}

// reject counts a frame that failed decoding or validation and closes the
// connection it came on.
func (n *node) reject(conn *netx.Conn, t byte, err error) {
	kind := "bad-" + netx.MsgName(t)
	if errors.Is(err, netx.ErrUnexpectedType) {
		kind = "unexpected-type"
	}
	n.log.Errorf("%s from %s: %v", kind, conn.RemoteAddr(), err)
	n.wm.Error(kind)
	conn.Close()
}

// stats runs fn on the loop and waits, so what fn reads is one consistent
// loop-time snapshot; it reports false once the loop has stopped.
func (n *node) stats(fn func()) bool {
	done := make(chan struct{})
	if !n.loop.Post(func() { fn(); close(done) }) {
		return false
	}
	<-done
	return true
}

// close shuts the node down: stop accepting, run stop (the role's own
// links), drop every connection, stop the loop.
func (n *node) close(stop func()) error {
	n.connMu.Lock()
	if n.closed {
		n.connMu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*netx.Conn, 0, len(n.conns))
	for conn := range n.conns {
		conns = append(conns, conn)
	}
	n.connMu.Unlock()

	stop()
	err := n.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	n.wg.Wait()
	n.loop.Stop()
	return err
}
