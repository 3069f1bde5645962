package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/lock"
	"hybriddb/internal/netx"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// TestCentralRejectsOutOfRangeFrames sends central frames that name sites
// beyond the configuration — the shape that once panicked its loop with an
// index out of range — and requires each to be counted as a wire error and
// its connection closed, with the node still serving afterwards.
func TestCentralRejectsOutOfRangeFrames(t *testing.T) {
	cfg := smokeConfig(2)
	central, err := StartCentral(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	frames := []struct {
		kind    string
		msgType byte
		payload []byte
	}{
		{"bad-update", netx.MsgUpdate, netx.AppendUpdate(nil, netx.Update{Site: 9, Txn: 1, Elements: []uint32{1}})},
		{"bad-auth-reply", netx.MsgAuthReply, netx.AppendAuthReply(nil, netx.AuthReply{Txn: 1, Site: 2})},
		{"bad-hello", netx.MsgHello, netx.AppendHello(nil, netx.Hello{Site: 2})},
		{"bad-ship", netx.MsgShip, func() []byte {
			_, p := netx.EncodeMsg(nil, hybrid.Msg{Kind: hybrid.MsgShip, Spec: shipSpec(7, cfg.CallsPerTxn)})
			return p
		}()},
	}
	for _, f := range frames {
		nc, err := net.DialTimeout("tcp", central.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn := netx.NewConn(nc, netx.Options{})
		closed := make(chan struct{})
		go func() { conn.Serve(nil); close(closed) }()
		if err := conn.Send(f.msgType, 0, f.payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: central kept the connection open", f.kind)
		}
		conn.Close()
		key := `wire_errors_total{type="` + f.kind + `"}`
		if got := central.Metrics().Snapshot()[key]; got != 1 {
			t.Errorf("%s = %v, want 1", key, got)
		}
	}
	if st := central.Stats(); st.ShipArrived != 0 || st.InSystem != 0 {
		t.Errorf("rejected frames reached the core: %+v", st)
	}
}

// shipSpec is a transaction homed at site home with calls elements.
func shipSpec(home, calls int) *workload.Txn {
	spec := &workload.Txn{ID: 1, Class: workload.ClassA, HomeSite: home}
	for i := 0; i < calls; i++ {
		spec.Elements = append(spec.Elements, uint32(i))
		spec.Modes = append(spec.Modes, lock.Share)
	}
	return spec
}

// TestWaitReadyMeansRegistered requires WaitReady to return only once the
// central node has registered the site, so a protocol message for it is
// never dropped as addressed to an unregistered site.
func TestWaitReadyMeansRegistered(t *testing.T) {
	cfg := smokeConfig(1)
	central, err := StartCentral(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	site, err := StartSite(cfg, 0, central.Addr(), "127.0.0.1:0", routing.AlwaysLocal{})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := site.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	const acks = `wire_msgs_out_total{type="hello-ack"}`
	if got := central.Metrics().Snapshot()[acks]; got < 1 {
		t.Fatalf("WaitReady returned before central registered the site: %s = %v", acks, got)
	}
}

// TestLoadRTResolution requires sub-millisecond response times to read as
// such in the load generator's result and in a site's site_rt_seconds: both
// histograms resolve 1 ms, not 10.
func TestLoadRTResolution(t *testing.T) {
	agg := newLoadAgg()
	for i := 0; i < 100; i++ {
		agg.record(netx.Result{Txn: int64(i)}, 0.0002+float64(i)*0.000004, true)
	}
	if r := agg.result(1, 1); r.P50RT >= 0.001 || r.P50RT <= 0 {
		t.Errorf("load P50RT of 0.2-0.6 ms samples = %v s, want under 1 ms", r.P50RT)
	}

	cfg := smokeConfig(1)
	site, err := StartSite(cfg, 0, "127.0.0.1:1", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	for i := 0; i < 100; i++ {
		site.rtLocal.Observe(0.0002 + float64(i)*0.000004)
	}
	const p50 = `site_rt_seconds_p50{route="local"}`
	if got := site.Metrics().Snapshot()[p50]; got >= 0.001 || got <= 0 {
		t.Errorf("%s of 0.2-0.6 ms samples = %v s, want under 1 ms", p50, got)
	}
}

// TestSiteDropsStrayDownlinkMessages plays a central node that sends a site
// protocol messages matching nothing the site has in flight — a reply for
// an unknown transaction, an acknowledgement of updates never sent — and
// requires the site to count and drop each without corrupting its state.
func TestSiteDropsStrayDownlinkMessages(t *testing.T) {
	cfg := smokeConfig(1)
	cfg.CommDelay = 0
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	site, err := StartSite(cfg, 0, ln.Addr().String(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	uplink := netx.NewConn(nc, netx.Options{})
	defer uplink.Close()
	go uplink.Serve(func(*netx.Conn, netx.Frame) {})
	send := func(m hybrid.Msg) {
		typ, p := netx.EncodeMsg(nil, m)
		if err := uplink.Send(typ, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	send(hybrid.Msg{Kind: hybrid.MsgReply, Site: 0, Txn: 77})
	send(hybrid.Msg{Kind: hybrid.MsgUpdateAck, Site: 0, Elems: []uint32{5, 5}})
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := site.Metrics().Snapshot()
		if snap[`wire_errors_total{type="stray-reply"}`] == 1 && snap[`wire_errors_total{type="stray-update-ack"}`] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stray messages not counted: %v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := site.Stats(); st.RepliesDelivered != 0 || st.InSystem != 0 {
		t.Errorf("stray messages reached the protocol state: %+v", st)
	}
}
