package netx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgHello, ReqID: 0, Payload: nil},
		{Type: MsgSubmit, ReqID: 1, Payload: []byte{1, 2, 3}},
		{Type: MsgReply, ReqID: 1<<64 - 1, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: 0, ReqID: 42, Payload: []byte{}},
	}
	var wire bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&wire, f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f, err)
		}
	}
	var buf []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, buf, err = ReadFrame(&wire, buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if got.Type != want.Type || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame #%d: got %v want %v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(&wire, buf); err != io.EOF {
		t.Fatalf("read past end: got %v, want io.EOF", err)
	}
}

func TestReadFrameMalformedLength(t *testing.T) {
	// Length words below the 9-byte header are illegal, even with bytes
	// available behind them.
	for _, n := range []uint32{0, 1, 8} {
		var wire bytes.Buffer
		binary.Write(&wire, binary.BigEndian, n)
		wire.Write(bytes.Repeat([]byte{0}, 16))
		if _, _, err := ReadFrame(&wire, nil); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("length %d: got %v, want ErrMalformedFrame", n, err)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	var wire bytes.Buffer
	binary.Write(&wire, binary.BigEndian, uint32(MaxFrame+1))
	if _, _, err := ReadFrame(&wire, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// The reader must reject before allocating or consuming the body.
	if wire.Len() != 0 {
		// Only the length word was written; nothing further to consume.
		t.Fatalf("reader consumed %d unexpected bytes", wire.Len())
	}
}

func TestWriteFrameOversized(t *testing.T) {
	f := Frame{Type: MsgSubmit, Payload: make([]byte, MaxFrame)}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if wire.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes onto the wire", wire.Len())
	}
	// Exactly at the limit is legal.
	f.Payload = make([]byte, MaxFrame-headerLen)
	if err := WriteFrame(&wire, f); err != nil {
		t.Fatalf("frame at MaxFrame rejected: %v", err)
	}
	got, _, err := ReadFrame(&wire, nil)
	if err != nil {
		t.Fatalf("reading frame at MaxFrame: %v", err)
	}
	if len(got.Payload) != MaxFrame-headerLen {
		t.Fatalf("payload length %d, want %d", len(got.Payload), MaxFrame-headerLen)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full, err := AppendFrame(nil, Frame{Type: MsgShip, ReqID: 7, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix (except the empty one, which is a clean EOF)
	// must surface as an unexpected EOF, never a zero-value frame.
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d/%d: got %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	WriteFrame(&wire, Frame{Type: MsgHello, Payload: make([]byte, 100)})
	WriteFrame(&wire, Frame{Type: MsgHello, Payload: make([]byte, 10)})
	_, buf, err := ReadFrame(&wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := &buf[0]
	_, buf2, err := ReadFrame(&wire, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != first {
		t.Fatal("smaller second frame did not reuse the read buffer")
	}
}

// FuzzFrame feeds arbitrary bytes to ReadFrame, the first decoder every
// untrusted byte meets: it must never panic, must reject an oversized
// length word as ErrFrameTooLarge, and every frame it accepts must encode
// back (AppendFrame) to exactly the bytes it consumed.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			start := len(data) - r.Len()
			fr, next, err := ReadFrame(r, buf)
			buf = next
			if err != nil {
				if len(data)-start >= 4 && binary.BigEndian.Uint32(data[start:]) > MaxFrame && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("oversized length word not rejected as too large: %v", err)
				}
				return
			}
			enc, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("accepted %v does not re-encode: %v", fr, err)
			}
			if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(enc, consumed) {
				t.Fatalf("%v re-encodes to %x, read from %x", fr, enc, consumed)
			}
		}
	})
}
