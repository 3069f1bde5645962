package netx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and answers every MsgSubmit frame with a
// MsgResult frame carrying the same request id and payload.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []*Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := NewConn(nc, Options{})
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn.Serve(func(c *Conn, f Frame) {
					payload := append([]byte(nil), f.Payload...)
					c.Send(MsgResult, f.ReqID, payload)
				})
				conn.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func TestConnCallRoundTrip(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{})
	defer conn.Close()
	go conn.Serve(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		want := []byte{byte(i), byte(i >> 8), 0xCC}
		f, err := conn.Call(ctx, MsgSubmit, want)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if f.Type != MsgResult || string(f.Payload) != string(want) {
			t.Fatalf("call %d: got %v", i, f)
		}
	}
}

func TestConnConcurrentCallsCorrelate(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{})
	defer conn.Close()
	go conn.Serve(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				want := []byte{byte(g), byte(i)}
				f, err := conn.Call(ctx, MsgSubmit, want)
				if err != nil {
					errs <- err
					return
				}
				if string(f.Payload) != string(want) {
					errs <- errors.New("response correlated to the wrong call")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConnCallFailsOnClose(t *testing.T) {
	client, server := net.Pipe()
	conn := NewConn(client, Options{})
	go conn.Serve(nil)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Call(context.Background(), MsgSubmit, []byte("x"))
		done <- err
	}()
	// Swallow the request, then kill the link with the call pending.
	buf := make([]byte, 64)
	server.Read(buf)
	server.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded on a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by connection death")
	}
	conn.Close()
}

func TestConnReadTimeoutDropsSilentLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			// Hold the connection open without ever writing.
			defer nc.Close()
			time.Sleep(3 * time.Second)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc, Options{ReadTimeout: 50 * time.Millisecond})
	defer conn.Close()
	served := make(chan error, 1)
	go func() { served <- conn.Serve(nil) }()
	select {
	case err := <-served:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("serve ended with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read deadline never fired")
	}
}

func TestConnSendQueueBackpressureKills(t *testing.T) {
	// A peer that never reads: the kernel buffers fill, the pump blocks,
	// and the tiny send queue overflows — the connection must die rather
	// than block the sender.
	client, server := net.Pipe() // net.Pipe has no buffering at all
	defer server.Close()
	conn := NewConn(client, Options{SendQueue: 4})
	defer conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := conn.Send(MsgUpdate, 0, []byte("payload")); err != nil {
			if !errors.Is(err, ErrSendQueueFull) {
				t.Fatalf("got %v, want ErrSendQueueFull", err)
			}
			return
		}
	}
	t.Fatal("send queue never overflowed against a stalled peer")
}

func TestClientReconnects(t *testing.T) {
	addr, stop := echoServer(t)

	var mu sync.Mutex
	var hellos int
	cl := DialLoop(addr, nil, func(c *Conn) error {
		mu.Lock()
		hellos++
		mu.Unlock()
		return nil
	}, Options{})
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if _, err := cl.Call(ctx, MsgSubmit, []byte("a")); err != nil {
		t.Fatalf("call on first connection: %v", err)
	}

	// Kill the server; the link drops and sends fail fast.
	stop()
	for {
		if err := cl.Send(MsgSubmit, 0, nil); err != nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("link never observed the server death")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart a server on the same address; the client must redial.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := NewConn(nc, Options{})
			go conn.Serve(func(c *Conn, f Frame) {
				c.Send(MsgResult, f.ReqID, append([]byte(nil), f.Payload...))
			})
		}
	}()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if _, err := cl.Call(ctx, MsgSubmit, []byte("b")); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hellos < 2 {
		t.Fatalf("onConnect ran %d times, want >= 2 (reconnect)", hellos)
	}
}

func TestClientCloseWhileBackingOff(t *testing.T) {
	// No listener: the client sits in its dial/backoff loop. Close must
	// return promptly anyway.
	cl := DialLoop("127.0.0.1:1", nil, nil, Options{})
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { cl.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung during backoff")
	}
	if err := cl.Send(MsgSubmit, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// FuzzServe drives Conn.Serve's read loop over a net.Pipe with a fuzzed
// byte stream, where framing meets a live connection. Serve must never
// panic; its handler must see exactly the frames that re-encode, in order,
// to the prefix of the stream they were read from; and the stream must end
// Serve with the connection closed — cleanly (io.EOF) only when every byte
// formed a whole frame, with a read error at the first malformed or torn
// frame otherwise.
func FuzzServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, cli := net.Pipe()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			cli.Write(data) // fails once Serve gives up and closes its end
			cli.Close()
		}()

		c := NewConn(srv, Options{})
		consumed := 0
		err := c.Serve(func(_ *Conn, fr Frame) {
			enc, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("handled %v does not re-encode: %v", fr, err)
			}
			if end := consumed + len(enc); end > len(data) || !bytes.Equal(enc, data[consumed:end]) {
				t.Fatalf("handled %v re-encodes to %x, stream at offset %d is %x", fr, enc, consumed, data[consumed:])
			}
			consumed += len(enc)
		})
		<-wrote

		if !c.isClosed() {
			t.Fatalf("Serve returned %v with the connection still open", err)
		}
		if sendErr := c.Send(MsgSubmit, 0, nil); sendErr == nil {
			t.Fatal("Send succeeded on a connection Serve closed")
		}
		switch {
		case err == nil:
			t.Fatal("Serve returned a nil error")
		case errors.Is(err, io.EOF) != (consumed == len(data)):
			t.Fatalf("Serve ended with %v after consuming %d of %d bytes", err, consumed, len(data))
		}
		c.Close()
	})
}
