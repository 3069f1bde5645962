package netx

// Connection plumbing: a framed connection with a per-connection write pump
// and request-id correlation, and a reconnecting client with exponential
// backoff for the long-lived uplinks of the cluster.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed connection or client.
var ErrClosed = errors.New("netx: connection closed")

// ErrNotConnected is returned by a Client while its link is down.
var ErrNotConnected = errors.New("netx: not connected")

// ErrSendQueueFull is wrapped in the close reason of a connection killed by
// write backpressure.
var ErrSendQueueFull = errors.New("netx: send queue full")

// Handler consumes inbound frames that are not Call responses. It runs on
// the connection's read goroutine: the frame's Payload aliases the read
// buffer, so the handler must decode (or copy) it before returning —
// decoded messages own their memory and may cross goroutines freely.
type Handler func(c *Conn, f Frame)

// Options tunes a connection.
type Options struct {
	// ReadTimeout arms a deadline on every frame read; a link silent for
	// longer is dropped. Zero leaves reads undeadlined, for idle-tolerant
	// inner links.
	ReadTimeout time.Duration
	// SendQueue is the write pump's frame capacity (default 1024). A peer
	// slow enough to fill it gets disconnected rather than blocking the
	// sender — the cluster's event loops must never stall on a socket.
	SendQueue int
	// Stats, when non-nil, receives transport tallies (frames, bytes,
	// queue depth, deadline hits) from every connection using these
	// options.
	Stats *Stats
}

func (o Options) sendQueue() int {
	if o.SendQueue <= 0 {
		return 1024
	}
	return o.SendQueue
}

// Conn is a framed connection. Sends are asynchronous: frames queue to a
// per-connection write pump goroutine, so senders (the cluster's event
// loops) never block on the socket. Inbound frames are read by Serve, which
// completes pending Calls by request id and hands everything else to the
// handler.
type Conn struct {
	nc   net.Conn
	opts Options

	sendCh chan []byte

	mu      sync.Mutex
	pending map[uint64]chan Frame
	nextReq uint64
	closed  bool
	reason  error

	writerDone chan struct{}
}

// NewConn wraps an established net.Conn and starts its write pump. The
// caller must run Serve (usually on its own goroutine) to read.
func NewConn(nc net.Conn, opts Options) *Conn {
	c := &Conn{
		nc:         nc,
		opts:       opts,
		sendCh:     make(chan []byte, opts.sendQueue()),
		pending:    make(map[uint64]chan Frame),
		writerDone: make(chan struct{}),
	}
	go c.writePump()
	return c
}

func (c *Conn) writePump() {
	defer close(c.writerDone)
	for buf := range c.sendCh {
		_, err := c.nc.Write(buf)
		if st := c.opts.Stats; st != nil {
			st.SendQueueDepth.Add(-1)
		}
		if err != nil {
			c.closeWith(fmt.Errorf("netx: write: %w", err))
			// Drain until Close closes the channel so senders never block.
			for range c.sendCh {
				if st := c.opts.Stats; st != nil {
					st.SendQueueDepth.Add(-1)
				}
			}
			return
		}
	}
}

// Send queues one frame on the write pump. It never blocks: a full queue
// kills the connection (slow-peer protection) and returns the close reason.
func (c *Conn) Send(msgType byte, reqID uint64, payload []byte) error {
	buf, err := AppendFrame(make([]byte, 0, 4+headerLen+len(payload)), Frame{Type: msgType, ReqID: reqID, Payload: payload})
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		err := c.reason
		c.mu.Unlock()
		return err
	}
	select {
	case c.sendCh <- buf:
		if st := c.opts.Stats; st != nil {
			st.FramesOut.Add(1)
			st.BytesOut.Add(uint64(len(buf)))
			st.SendQueueDepth.Add(1)
		}
		c.mu.Unlock()
		return nil
	default:
		c.mu.Unlock()
		if st := c.opts.Stats; st != nil {
			st.QueueFullKills.Add(1)
		}
		c.closeWith(fmt.Errorf("%w (%d frames)", ErrSendQueueFull, c.opts.sendQueue()))
		return c.closeReason()
	}
}

// Call sends a frame with a fresh request id and blocks until a response
// frame carrying that id arrives, the context ends, or the connection dies.
// The response payload is copied and safe to retain.
func (c *Conn) Call(ctx context.Context, msgType byte, payload []byte) (Frame, error) {
	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.reason
		c.mu.Unlock()
		return Frame{}, err
	}
	c.nextReq++
	id := c.nextReq
	c.pending[id] = ch
	c.mu.Unlock()

	forget := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	if err := c.Send(msgType, id, payload); err != nil {
		forget()
		return Frame{}, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, c.closeReason()
		}
		return f, nil
	case <-ctx.Done():
		forget()
		return Frame{}, ctx.Err()
	}
}

// Serve reads frames until the connection dies, dispatching Call responses
// by request id and everything else to handler. It returns the error that
// ended the read loop (io.EOF for a clean peer close). Serve must be called
// at most once.
func (c *Conn) Serve(handler Handler) error {
	var buf []byte
	for {
		if c.opts.ReadTimeout > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout)); err != nil {
				c.closeWith(fmt.Errorf("netx: set deadline: %w", err))
				return err
			}
		}
		var f Frame
		var err error
		f, buf, err = ReadFrame(c.nc, buf)
		if err != nil {
			if st := c.opts.Stats; st != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					st.ReadDeadlineHits.Add(1)
				}
			}
			c.closeWith(fmt.Errorf("netx: read: %w", err))
			return err
		}
		if st := c.opts.Stats; st != nil {
			st.FramesIn.Add(1)
			st.BytesIn.Add(uint64(4 + headerLen + len(f.Payload)))
		}
		if f.ReqID != 0 {
			c.mu.Lock()
			ch, ok := c.pending[f.ReqID]
			if ok {
				delete(c.pending, f.ReqID)
			}
			c.mu.Unlock()
			if ok {
				// The waiter outlives this read iteration; give it its own
				// copy of the payload.
				resp := f
				resp.Payload = append([]byte(nil), f.Payload...)
				ch <- resp
				continue
			}
			// Not one of ours: an inbound request carrying a correlation id
			// (e.g. MsgSubmit) — the handler echoes the id on its response.
		}
		if handler != nil {
			handler(c, f)
		}
	}
}

// closeWith closes the connection once, recording the first reason.
func (c *Conn) closeWith(reason error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.reason = reason
	pending := c.pending
	c.pending = nil
	close(c.sendCh)
	c.mu.Unlock()

	c.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears the connection down; pending Calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.closeWith(ErrClosed)
	<-c.writerDone
	return nil
}

// isClosed reports whether the connection has been closed. A Conn is
// marked closed the moment its read or write side fails, before the
// goroutine serving it has returned.
func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Conn) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reason != nil {
		return c.reason
	}
	return ErrClosed
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// ---- Reconnecting client.

// Reconnect backoff: exponential from 50ms, capped at 2s.
const (
	backoffMin = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

// Client maintains one logical link to a server, redialing with exponential
// backoff whenever the connection drops. Sends while the link is down fail
// fast with ErrNotConnected — the cluster's protocol tolerates a lost
// message the way a real distributed system must, and the e2e harness
// runs on a loopback link that does not drop.
type Client struct {
	addr    string
	opts    Options
	handler Handler
	// onConnect runs on every successful (re)dial before any Send is
	// admitted, e.g. to introduce the peer with a MsgHello.
	onConnect func(*Conn) error

	mu   sync.Mutex
	cond *sync.Cond
	cur  *Conn
	stop bool

	stopCh chan struct{} // closed by Close; unblocks backoff sleeps
	done   chan struct{} // closed when the dial loop exits
}

// DialLoop starts a client for addr. The handler and options apply to every
// underlying connection; onConnect (optional) runs on each established
// connection before it is published for Send/Call.
func DialLoop(addr string, handler Handler, onConnect func(*Conn) error, opts Options) *Client {
	cl := &Client{
		addr:      addr,
		opts:      opts,
		handler:   handler,
		onConnect: onConnect,
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	cl.cond = sync.NewCond(&cl.mu)
	go cl.loop()
	return cl
}

func (cl *Client) loop() {
	defer close(cl.done)
	backoff := backoffMin
	for {
		if cl.stopped() {
			return
		}
		nc, err := net.DialTimeout("tcp", cl.addr, 2*time.Second)
		if err != nil {
			if !cl.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		conn := NewConn(nc, cl.opts)
		if cl.onConnect != nil {
			if err := cl.onConnect(conn); err != nil {
				conn.Close()
				continue
			}
		}
		cl.mu.Lock()
		if cl.stop {
			cl.mu.Unlock()
			conn.Close()
			return
		}
		cl.cur = conn
		cl.cond.Broadcast()
		cl.mu.Unlock()

		if st := cl.opts.Stats; st != nil {
			st.Connects.Add(1)
		}

		backoff = backoffMin
		conn.Serve(cl.handler) // blocks until the connection dies

		cl.mu.Lock()
		if cl.cur == conn {
			cl.cur = nil
		}
		cl.mu.Unlock()
	}
}

func (cl *Client) stopped() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.stop
}

// sleep waits d or until Close, reporting whether the client is still live.
func (cl *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return !cl.stopped()
	case <-cl.stopCh:
		return false
	}
}

// up reports whether the current connection is live; caller holds cl.mu.
// A connection that has died is still cl.cur until the dial loop's Serve
// returns and clears it, and in that window it must count as down.
func (cl *Client) up() bool {
	return cl.cur != nil && !cl.cur.isClosed()
}

// conn returns the live connection, or nil with ErrNotConnected.
func (cl *Client) conn() (*Conn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.stop {
		return nil, ErrClosed
	}
	if !cl.up() {
		return nil, ErrNotConnected
	}
	return cl.cur, nil
}

// Send queues a frame on the current connection.
func (cl *Client) Send(msgType byte, reqID uint64, payload []byte) error {
	c, err := cl.conn()
	if err != nil {
		return err
	}
	return c.Send(msgType, reqID, payload)
}

// Call performs a request/response round trip on the current connection.
func (cl *Client) Call(ctx context.Context, msgType byte, payload []byte) (Frame, error) {
	c, err := cl.conn()
	if err != nil {
		return Frame{}, err
	}
	return c.Call(ctx, msgType, payload)
}

// WaitConnected blocks until the link is up, the context ends, or the
// client closes.
func (cl *Client) WaitConnected(ctx context.Context) error {
	doneCh := make(chan struct{})
	defer close(doneCh)
	go func() {
		select {
		case <-ctx.Done():
		case <-doneCh:
		}
		cl.cond.Broadcast()
	}()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for !cl.up() && !cl.stop && ctx.Err() == nil {
		cl.cond.Wait()
	}
	if cl.up() {
		return nil
	}
	if cl.stop {
		return ErrClosed
	}
	return ctx.Err()
}

// Close stops redialing and tears down the current connection.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.stop {
		cl.mu.Unlock()
		<-cl.done
		return nil
	}
	cl.stop = true
	close(cl.stopCh)
	cur := cl.cur
	cl.cur = nil
	cl.cond.Broadcast()
	cl.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	<-cl.done
	return nil
}
