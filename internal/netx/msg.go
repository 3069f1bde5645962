package netx

// The transport adapter between the protocol core and the wire: the
// hybrid.Msg values the core sends and receives, encoded as the frames of
// wire.go, and the validation every inbound frame passes before the core
// sees it. A decoded message is exactly the message that was encoded — the
// wire-codec differential test runs the simulator over this round trip and
// requires the unchanged Result.

import (
	"errors"
	"fmt"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/workload"
)

// ErrUnexpectedType is wrapped by DecodeMsg when a frame's type does not
// travel in the direction it arrived from.
var ErrUnexpectedType = errors.New("netx: unexpected message type")

// Bounds is what an inbound frame is validated against: a frame naming a
// site, element, or call count outside the running configuration is
// rejected before the protocol core (which indexes by them) sees it.
type Bounds struct {
	Sites     int
	Lockspace uint32
	Calls     int
}

// BoundsOf returns the validation bounds of a configuration.
func BoundsOf(cfg hybrid.Config) Bounds {
	return Bounds{Sites: cfg.Sites, Lockspace: cfg.Lockspace, Calls: cfg.CallsPerTxn}
}

func (b Bounds) site(what string, s int) error {
	if s < 0 || s >= b.Sites {
		return fmt.Errorf("netx: %s site %d outside [0,%d)", what, s, b.Sites)
	}
	return nil
}

// siteOf converts a wire site index, checking it.
func (b Bounds) siteOf(what string, s uint32) (int, error) {
	if uint64(s) >= uint64(b.Sites) {
		return 0, fmt.Errorf("netx: %s site %d outside [0,%d)", what, s, b.Sites)
	}
	return int(s), nil
}

func (b Bounds) elems(what string, elems []uint32) error {
	for _, e := range elems {
		if e >= b.Lockspace {
			return fmt.Errorf("netx: %s element %d outside lockspace %d", what, e, b.Lockspace)
		}
	}
	return nil
}

// txn validates a transaction's input: a home site in range, one element
// per database call, every element in the lockspace.
func (b Bounds) txn(t *workload.Txn) error {
	if err := b.site("txn home", t.HomeSite); err != nil {
		return err
	}
	if len(t.Elements) != b.Calls {
		return fmt.Errorf("netx: txn %d has %d elements, want %d calls", t.ID, len(t.Elements), b.Calls)
	}
	return b.elems("txn", t.Elements)
}

// toSnapshot and fromSnapshot convert between the core's view and the wire
// snapshot.
func toSnapshot(v hybrid.View) Snapshot {
	return Snapshot{Queue: int32(v.Queue), InSystem: int32(v.InSystem), Locks: int32(v.Locks)}
}

func fromSnapshot(s Snapshot) hybrid.View {
	return hybrid.View{Queue: int(s.Queue), InSystem: int(s.InSystem), Locks: int(s.Locks)}
}

// msgTypes maps the core's message kinds to frame types.
var msgTypes = [...]byte{
	hybrid.MsgShip:      MsgShip,
	hybrid.MsgAuthReq:   MsgAuthReq,
	hybrid.MsgAuthReply: MsgAuthReply,
	hybrid.MsgRelease:   MsgRelease,
	hybrid.MsgUpdate:    MsgUpdate,
	hybrid.MsgUpdateAck: MsgUpdateAck,
	hybrid.MsgReply:     MsgReply,
}

// EncodeMsg appends m's payload to dst and returns the frame type and the
// extended slice. Every message carries the span-context bit set: the live
// nodes trace every transaction.
func EncodeMsg(dst []byte, m hybrid.Msg) (byte, []byte) {
	switch m.Kind {
	case hybrid.MsgShip:
		dst = AppendShip(dst, m.Spec, true)
	case hybrid.MsgAuthReq:
		dst = AppendAuthReq(dst, AuthReq{Txn: m.Txn, Elements: m.Elems, Modes: m.Modes, Snap: toSnapshot(m.View), Traced: true})
	case hybrid.MsgAuthReply:
		dst = AppendAuthReply(dst, AuthReply{Txn: m.Txn, Site: uint32(m.Site), NACK: m.NACK})
	case hybrid.MsgRelease:
		dst = AppendRelease(dst, Release{Txn: m.Txn, Snap: toSnapshot(m.View)})
	case hybrid.MsgUpdate:
		dst = AppendUpdate(dst, Update{Site: uint32(m.Site), Txn: m.Txn, Elements: m.Elems, Traced: true})
	case hybrid.MsgUpdateAck:
		dst = AppendUpdateAck(dst, UpdateAck{Elements: m.Elems, Snap: toSnapshot(m.View)})
	case hybrid.MsgReply:
		dst = AppendReply(dst, Reply{Txn: m.Txn, ClassB: m.ClassB, Snap: toSnapshot(m.View), Traced: true})
	default:
		panic(fmt.Sprintf("netx: encoding unknown message kind %d", m.Kind))
	}
	return msgTypes[m.Kind], dst
}

// DecodeMsg decodes and validates one protocol frame arriving at a node:
// at the central complex (site < 0) only the uplink types, at site `site`
// only the downlink types, which it addresses to that site. Every site
// index, element, and call count is checked against b.
func DecodeMsg(t byte, p []byte, b Bounds, site int) (hybrid.Msg, error) {
	m, err := decodeMsg(t, p, b, site)
	if err != nil {
		return hybrid.Msg{}, fmt.Errorf("%s: %w", MsgName(t), err)
	}
	return m, nil
}

func decodeMsg(t byte, p []byte, b Bounds, site int) (hybrid.Msg, error) {
	uplink := t == MsgShip || t == MsgAuthReply || t == MsgUpdate
	downlink := t == MsgAuthReq || t == MsgRelease || t == MsgUpdateAck || t == MsgReply
	if site < 0 && !uplink || site >= 0 && !downlink {
		return hybrid.Msg{}, ErrUnexpectedType
	}
	if site >= 0 {
		if err := b.site("receiving", site); err != nil {
			return hybrid.Msg{}, err
		}
	}
	switch t {
	case MsgShip:
		spec, _, err := DecodeShip(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		if err := b.txn(spec); err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgShip, Site: spec.HomeSite, Txn: spec.ID, Spec: spec}, nil
	case MsgAuthReq:
		a, err := DecodeAuthReq(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		if len(a.Elements) > b.Calls {
			return hybrid.Msg{}, fmt.Errorf("netx: auth-req %d names %d elements, more than %d calls", a.Txn, len(a.Elements), b.Calls)
		}
		if err := b.elems("auth-req", a.Elements); err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgAuthReq, Site: site, Txn: a.Txn, Elems: a.Elements, Modes: a.Modes, View: fromSnapshot(a.Snap)}, nil
	case MsgAuthReply:
		a, err := DecodeAuthReply(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		from, err := b.siteOf("auth-reply", a.Site)
		if err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgAuthReply, Site: from, Txn: a.Txn, NACK: a.NACK}, nil
	case MsgRelease:
		r, err := DecodeRelease(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgRelease, Site: site, Txn: r.Txn, View: fromSnapshot(r.Snap)}, nil
	case MsgUpdate:
		u, err := DecodeUpdate(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		from, err := b.siteOf("update", u.Site)
		if err != nil {
			return hybrid.Msg{}, err
		}
		if err := b.elems("update", u.Elements); err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgUpdate, Site: from, Txn: u.Txn, Elems: u.Elements}, nil
	case MsgUpdateAck:
		u, err := DecodeUpdateAck(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		if err := b.elems("update-ack", u.Elements); err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgUpdateAck, Site: site, Elems: u.Elements, View: fromSnapshot(u.Snap)}, nil
	default: // MsgReply
		r, err := DecodeReply(p)
		if err != nil {
			return hybrid.Msg{}, err
		}
		return hybrid.Msg{Kind: hybrid.MsgReply, Site: site, Txn: r.Txn, ClassB: r.ClassB, View: fromSnapshot(r.Snap)}, nil
	}
}

// DecodeSubmit decodes and validates a MsgSubmit payload arriving at site:
// the transaction must be homed there and fit the configuration.
func DecodeSubmit(p []byte, b Bounds, site int) (*workload.Txn, error) {
	t, err := DecodeTxn(p)
	if err != nil {
		return nil, err
	}
	if t.HomeSite != site {
		return nil, fmt.Errorf("netx: txn %d homed at site %d submitted to site %d", t.ID, t.HomeSite, site)
	}
	if err := b.txn(t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeHelloFor decodes a MsgHello payload and checks the announced site
// index against b.
func DecodeHelloFor(p []byte, b Bounds) (Hello, error) {
	h, err := DecodeHello(p)
	if err != nil {
		return Hello{}, err
	}
	if _, err := b.siteOf("hello", h.Site); err != nil {
		return Hello{}, err
	}
	return h, nil
}
