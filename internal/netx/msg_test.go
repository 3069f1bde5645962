package netx

import (
	"errors"
	"reflect"
	"testing"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// codecNet is a transport that passes every protocol message through the
// live adapter — EncodeMsg, then DecodeMsg with its validation, exactly as
// a receiving node runs them — and hands the decoded value to the simulated
// transport it wraps.
type codecNet struct {
	inner hybrid.Transport
	b     Bounds
	t     *testing.T
}

func (n codecNet) roundTrip(m hybrid.Msg) hybrid.Msg {
	typ, p := EncodeMsg(nil, m)
	to := m.Site
	if m.Kind.Uplink() {
		to = -1
	}
	got, err := DecodeMsg(typ, p, n.b, to)
	if err != nil {
		n.t.Errorf("decoding %+v: %v", m, err)
		return m
	}
	if !reflect.DeepEqual(got, m) {
		n.t.Errorf("round trip changed %+v into %+v", m, got)
	}
	return got
}

func (n codecNet) ToCentral(m hybrid.Msg) { n.inner.ToCentral(n.roundTrip(m)) }
func (n codecNet) ToSite(m hybrid.Msg)    { n.inner.ToSite(n.roundTrip(m)) }
func (n codecNet) MessagesSent() uint64   { return n.inner.MessagesSent() }

// wireGoldenConfig is the hybrid package's golden configuration.
func wireGoldenConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Seed = 42
	cfg.Warmup = 20
	cfg.Duration = 80
	cfg.ArrivalRatePerSite = 2.0
	cfg.SelfCheck = true
	return cfg
}

// TestWireCodecDifferential runs the simulator with every protocol message
// encoded, decoded and validated by the live adapter on its way, and
// requires the Result of the plain engine bit for bit: the messages the
// core exchanges carry everything the protocol needs, and the wire carries
// all of it.
func TestWireCodecDifferential(t *testing.T) {
	skewed := wireGoldenConfig()
	skewed.SkewTheta = 0.8
	skewed.CentralHotFraction = 0.5
	skewed.ColdFetchDelay = 0.0137
	skewed.UpdateBatchWindow = 0.05
	sharded := skewed
	sharded.Shards = 3
	for _, tc := range []struct {
		name string
		cfg  hybrid.Config
	}{
		{"golden", wireGoldenConfig()},
		{"skew-partial-batched", skewed},
		{"skew-partial-batched-sharded", sharded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.cfg.ModelParams()
			for _, mk := range []func() routing.Strategy{
				func() routing.Strategy { return routing.NewStatic(0.5, 7) },
				func() routing.Strategy { return routing.MinAverage{Params: p, Estimator: routing.FromInSystem} },
			} {
				plain, err := hybrid.New(tc.cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				want := plain.Run()
				wired, err := hybrid.New(tc.cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				wired.WrapTransport(func(tr hybrid.Transport) hybrid.Transport {
					return codecNet{inner: tr, b: BoundsOf(tc.cfg), t: t}
				})
				got := wired.Run()
				if wired.Parallel() != (tc.cfg.Shards > 1) {
					t.Fatalf("%s: parallel = %v with %d shards", want.Strategy, wired.Parallel(), tc.cfg.Shards)
				}
				if want.MessagesSent == 0 || want.CompletedShippedA == 0 {
					t.Fatalf("%s: degenerate run: %d messages, %d shipped", want.Strategy, want.MessagesSent, want.CompletedShippedA)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Result over the wire codec differs from the plain engine:\n got %+v\nwant %+v", want.Strategy, got, want)
				}
			}
		})
	}
}

// testBounds is a small configuration for the validation tests.
var testBounds = Bounds{Sites: 2, Lockspace: 64, Calls: 2}

func validShip() hybrid.Msg {
	spec := &workload.Txn{ID: 9, Class: workload.ClassA, HomeSite: 1,
		Elements: []uint32{40, 41}, Modes: []lock.Mode{lock.Share, lock.Exclusive}}
	return hybrid.Msg{Kind: hybrid.MsgShip, Site: 1, Txn: 9, Spec: spec}
}

// TestDecodeMsgRejectsOutOfRange pins the adapter's validation: every
// site index, element and call count a frame names is checked against the
// configuration, and a frame travelling the wrong direction is refused.
func TestDecodeMsgRejectsOutOfRange(t *testing.T) {
	enc := func(m hybrid.Msg) (byte, []byte) { return EncodeMsg(nil, m) }
	bad := map[string]struct {
		m  hybrid.Msg
		to int
	}{
		"update site":        {hybrid.Msg{Kind: hybrid.MsgUpdate, Site: 9, Elems: []uint32{1}}, -1},
		"update element":     {hybrid.Msg{Kind: hybrid.MsgUpdate, Site: 1, Elems: []uint32{64}}, -1},
		"auth-reply site":    {hybrid.Msg{Kind: hybrid.MsgAuthReply, Site: 2, Txn: 1}, -1},
		"auth-req element":   {hybrid.Msg{Kind: hybrid.MsgAuthReq, Site: 0, Elems: []uint32{99}, Modes: []lock.Mode{lock.Share}}, 0},
		"auth-req calls":     {hybrid.Msg{Kind: hybrid.MsgAuthReq, Site: 0, Elems: []uint32{1, 2, 3}, Modes: []lock.Mode{1, 1, 1}}, 0},
		"update-ack element": {hybrid.Msg{Kind: hybrid.MsgUpdateAck, Site: 0, Elems: []uint32{64}}, 0},
		"reply at central":   {hybrid.Msg{Kind: hybrid.MsgReply, Site: 0, Txn: 1}, -1},
		"ship at a site":     {validShip(), 1},
		"receiving site":     {hybrid.Msg{Kind: hybrid.MsgRelease, Site: 5, Txn: 1}, 5},
	}
	for name, c := range bad {
		typ, p := enc(c.m)
		if _, err := DecodeMsg(typ, p, testBounds, c.to); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ship := validShip()
	for name, mut := range map[string]func(*workload.Txn){
		"home":     func(s *workload.Txn) { s.HomeSite = 2 },
		"element":  func(s *workload.Txn) { s.Elements[0] = 64 },
		"calls":    func(s *workload.Txn) { s.Elements, s.Modes = s.Elements[:1], s.Modes[:1] },
		"no calls": func(s *workload.Txn) { s.Elements, s.Modes = nil, nil },
	} {
		m := validShip()
		mut(m.Spec)
		typ, p := enc(m)
		if _, err := DecodeMsg(typ, p, testBounds, -1); err == nil {
			t.Errorf("ship with bad %s accepted", name)
		}
	}
	typ, p := enc(ship)
	if got, err := DecodeMsg(typ, p, testBounds, -1); err != nil || !reflect.DeepEqual(got, ship) {
		t.Fatalf("valid ship: %+v, %v", got, err)
	}
	if _, err := DecodeMsg(MsgSubmit, nil, testBounds, 0); !errors.Is(err, ErrUnexpectedType) {
		t.Errorf("submit on a protocol link: %v, want ErrUnexpectedType", err)
	}
	if _, err := DecodeSubmit(AppendTxn(nil, ship.Spec), testBounds, 0); err == nil {
		t.Error("submit homed at site 1 accepted at site 0")
	}
	if _, err := DecodeSubmit(AppendTxn(nil, ship.Spec), testBounds, 1); err != nil {
		t.Errorf("valid submit: %v", err)
	}
	if _, err := DecodeHelloFor(AppendHello(nil, Hello{Site: 2}), testBounds); err == nil {
		t.Error("hello from site 2 of 2 accepted")
	}
}

// FuzzDecode feeds arbitrary payloads of every message type through the
// decoders and the validation the live adapter applies: nothing may panic,
// an accepted protocol message must satisfy the bounds it was validated
// against, and it must survive a re-encode unchanged.
func FuzzDecode(f *testing.F) {
	for _, m := range []hybrid.Msg{
		validShip(),
		{Kind: hybrid.MsgAuthReq, Site: 1, Txn: 9, Elems: []uint32{40}, Modes: []lock.Mode{lock.Exclusive}, View: hybrid.View{Queue: 3, InSystem: 2, Locks: 7}},
		{Kind: hybrid.MsgAuthReply, Site: 1, Txn: 9, NACK: true},
		{Kind: hybrid.MsgRelease, Site: 0, Txn: 9, View: hybrid.View{Queue: 1}},
		{Kind: hybrid.MsgUpdate, Site: 0, Txn: 4, Elems: []uint32{3, 5}},
		{Kind: hybrid.MsgUpdateAck, Site: 0, Elems: []uint32{3, 5}, View: hybrid.View{Locks: 2}},
		{Kind: hybrid.MsgReply, Site: 1, Txn: 9, ClassB: true},
	} {
		typ, p := EncodeMsg(nil, m)
		f.Add(typ, p)
	}
	f.Add(MsgSubmit, AppendTxn(nil, validShip().Spec))
	f.Add(MsgHello, AppendHello(nil, Hello{Site: 1, T0: 2.5}))
	f.Add(MsgHelloAck, AppendHelloAck(nil, HelloAck{T0: 1, TCentral: 2}))
	f.Add(MsgResult, AppendResult(nil, Result{Txn: 3, Shipped: true}))
	b := testBounds
	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		switch typ {
		case MsgSubmit:
			for site := 0; site < b.Sites; site++ {
				if spec, err := DecodeSubmit(p, b, site); err == nil {
					if spec.HomeSite != site {
						t.Fatalf("submit for site %d accepted at %d", spec.HomeSite, site)
					}
					checkTxn(t, spec, b)
				}
			}
			return
		case MsgHello:
			if h, err := DecodeHelloFor(p, b); err == nil && int(h.Site) >= b.Sites {
				t.Fatalf("hello from site %d accepted", h.Site)
			}
			return
		case MsgHelloAck:
			DecodeHelloAck(p)
			return
		case MsgResult:
			DecodeResult(p)
			return
		}
		for site := -1; site < b.Sites+1; site++ {
			m, err := DecodeMsg(typ, p, b, site)
			if err != nil {
				continue
			}
			checkMsg(t, m, b, site)
			typ2, p2 := EncodeMsg(nil, m)
			m2, err := DecodeMsg(typ2, p2, b, site)
			if typ2 != typ || err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("re-encode of %+v: type %d, %+v, %v", m, typ2, m2, err)
			}
		}
	})
}

// checkMsg asserts what the protocol core relies on of a validated message.
func checkMsg(t *testing.T, m hybrid.Msg, b Bounds, to int) {
	t.Helper()
	if m.Site < 0 || m.Site >= b.Sites {
		t.Fatalf("%+v accepted with site %d of %d", m, m.Site, b.Sites)
	}
	if m.Kind.Uplink() != (to < 0) || (to >= 0 && m.Site != to) {
		t.Fatalf("%+v accepted at %d", m, to)
	}
	if m.Kind == hybrid.MsgAuthReq && (len(m.Elems) > b.Calls || len(m.Modes) != len(m.Elems)) {
		t.Fatalf("%+v accepted with %d elements, %d modes", m, len(m.Elems), len(m.Modes))
	}
	for _, e := range m.Elems {
		if e >= b.Lockspace {
			t.Fatalf("%+v accepted with element %d", m, e)
		}
	}
	if m.Kind == hybrid.MsgShip {
		checkTxn(t, m.Spec, b)
	}
}

func checkTxn(t *testing.T, s *workload.Txn, b Bounds) {
	t.Helper()
	if s.HomeSite < 0 || s.HomeSite >= b.Sites || len(s.Elements) != b.Calls || len(s.Modes) != b.Calls {
		t.Fatalf("txn %+v accepted", s)
	}
	for _, e := range s.Elements {
		if e >= b.Lockspace {
			t.Fatalf("txn %+v accepted with element %d", s, e)
		}
	}
	if s.Class != workload.ClassA && s.Class != workload.ClassB {
		t.Fatalf("txn %+v accepted with class %d", s, s.Class)
	}
}
