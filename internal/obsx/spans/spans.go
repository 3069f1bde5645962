// Package spans reconstructs per-transaction span trees from the engine's
// observer-bus event stream and exports them as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
//
// The paper's routing policies differ precisely in where a transaction's
// time goes — network hops, CPU queueing at the central complex, lock
// waits, optimistic-abort retries — and a summary Result cannot show that.
// A Collector subscribes to the observer bus as an obs.DetailObserver, so
// it sees the lifecycle kinds and the detail kinds (lock steps, reruns,
// authentication requests) in one ordered stream; the engine builds detail
// events only while such an observer is attached. The Collector
// folds the flat event stream back into nested spans, and renders one
// trace "process" per local site plus a dedicated lane for the central
// complex. Each transaction gets its own thread (tid = transaction id)
// inside the process where the work happened, so a timeline reads:
//
//	txn                                  whole lifetime, home-site lane
//	├─ attempt N                         one execution attempt
//	│   └─ lock wait (elem)              blocking waits inside the attempt
//	├─ ship+setup                        transit + setup, central lane
//	├─ auth                              authentication round(s), central lane
//	└─ reply                             completion reply in flight, home lane
//
// Aborts, route decisions, commits, and authentication answers appear as
// instant events with their cause in args, so Perfetto's search and
// aggregation can slice on them.
package spans

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"hybriddb/internal/hybrid/obs"
)

// DefaultMaxEvents bounds the retained trace events; a long saturated run
// can emit protocol events far faster than anyone can look at them.
const DefaultMaxEvents = 1 << 20

// pid assignment: the central complex gets its own lane before the sites.
const centralPid = 1

func sitePid(site int) int {
	if site < 0 {
		return centralPid
	}
	return site + 2
}

// event is one Chrome trace event. Args are ordered key/value pairs so the
// export is byte-deterministic.
type event struct {
	name string
	cat  string
	ph   byte // 'B', 'E', 'i', 'M'
	ts   float64
	pid  int
	tid  int64
	args []kv
}

type kv struct{ k, v string }

// txnState is the collector's view of one in-flight transaction.
type txnState struct {
	home    int
	attempt int

	txnOpen      bool
	execPid      int // pid of the open "attempt" span, 0 when closed
	shipOpen     bool
	authOpen     bool
	replyOpen    bool
	lockWaitOpen bool
	lockWaitPid  int
	lockWaitElem uint32
}

// Collector accumulates trace events for export. Subscribe it on an engine
// before Run; it must see the run from the start to pair span boundaries.
type Collector struct {
	// MaxEvents caps the retained events (0 selects DefaultMaxEvents).
	// The cap is soft: once reached, transactions not yet seen are dropped
	// (and counted), while transactions with open spans keep recording
	// until they close — truncating those would corrupt the B/E pairing.
	MaxEvents int

	sites   int
	events  []event
	txns    map[int64]*txnState
	order   []int64 // txn ids in arrival order, for deterministic flush
	dropped uint64
	lastAt  float64
}

// NewCollector returns a collector for an engine with the given number of
// local sites (spans of unknown sites still render; the count only seeds
// the process-name metadata).
func NewCollector(sites int) *Collector {
	return &Collector{sites: sites, txns: make(map[int64]*txnState)}
}

// WantDetail implements obs.DetailObserver: the collector consumes the
// detail kinds.
func (c *Collector) WantDetail() bool { return true }

// Dropped returns the number of events discarded after MaxEvents filled.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Events returns the number of retained trace events.
func (c *Collector) Events() int { return len(c.events) }

func (c *Collector) limit() int {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	return DefaultMaxEvents
}

func (c *Collector) add(e event) {
	c.events = append(c.events, e)
}

func (c *Collector) begin(at float64, pid int, tid int64, name string, args ...kv) {
	c.add(event{name: name, cat: "txn", ph: 'B', ts: at, pid: pid, tid: tid, args: args})
}

func (c *Collector) end(at float64, pid int, tid int64, args ...kv) {
	c.add(event{ph: 'E', ts: at, pid: pid, tid: tid, args: args})
}

func (c *Collector) instant(at float64, pid int, tid int64, name string, args ...kv) {
	c.add(event{name: name, cat: "txn", ph: 'i', ts: at, pid: pid, tid: tid, args: args})
}

// OnEvent implements obs.Observer, folding the event stream into span
// boundaries.
func (c *Collector) OnEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.MeasureStart, obs.QueueSample, obs.SelfCheck,
		obs.LockWaitEnd, obs.AuthRound, obs.ColdFetch, obs.ShipArrive:
		// No span role. The truncation instant follows only the steps
		// that shape spans or carry updates, so an export of a fixed
		// seed stays byte-stable.
		return
	}
	if ev.At > c.lastAt {
		c.lastAt = ev.At
	}
	if ev.Kind == obs.UpdateApplied || ev.Kind == obs.UpdateAcked {
		return // propagation steps belong to no transaction's lanes
	}
	t := c.txns[ev.Txn]
	if t == nil {
		if ev.Kind != obs.TxnArrive || len(c.events) >= c.limit() {
			// Mid-flight txn admitted before the collector attached, or a
			// new arrival past the retention cap.
			c.dropped++
			return
		}
		t = &txnState{home: ev.Site, attempt: 1}
		c.txns[ev.Txn] = t
		c.order = append(c.order, ev.Txn)
	}
	switch ev.Kind {
	case obs.TxnArrive:
		class := "A"
		if ev.ClassB {
			class = "B"
		}
		t.txnOpen = true
		c.begin(ev.At, sitePid(ev.Site), ev.Txn, "txn", kv{"class", class})
		if !ev.Shipped {
			c.instant(ev.At, sitePid(ev.Site), ev.Txn, "route: local")
			t.execPid = sitePid(ev.Site)
			c.begin(ev.At, t.execPid, ev.Txn, "attempt", kv{"n", "1"})
			break
		}
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "route: ship")
		t.shipOpen = true
		c.begin(ev.At, centralPid, ev.Txn, "ship+setup")
	case obs.LockRequest:
		c.ensureExec(t, ev)
	case obs.LockWaitBegin:
		c.ensureExec(t, ev)
		t.lockWaitOpen = true
		t.lockWaitPid = sitePid(ev.Site)
		t.lockWaitElem = ev.Elem
		c.begin(ev.At, t.lockWaitPid, ev.Txn, "lock wait", kv{"elem", itoa(ev.Elem)})
	case obs.LockGrant:
		if t.lockWaitOpen && t.lockWaitElem == ev.Elem {
			t.lockWaitOpen = false
			c.end(ev.At, t.lockWaitPid, ev.Txn)
		}
	case obs.AbortDeadlockLocal, obs.AbortDeadlockCentral:
		c.closeLockWait(t, ev.At, ev.Txn)
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "abort", kv{"cause", "deadlock"}, kv{"elem", itoa(ev.Elem)})
		c.closeExec(t, ev, "deadlock")
		t.attempt++
	case obs.AbortLocalSeized:
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "abort", kv{"cause", "seized"})
		c.closeExec(t, ev, "seized")
		t.attempt++
	case obs.AbortCentralNACK, obs.AbortCentralInval:
		if t.authOpen {
			t.authOpen = false
			c.end(ev.At, centralPid, ev.Txn, kv{"outcome", "abort"})
		}
		cause := ev.Annotation()
		c.instant(ev.At, centralPid, ev.Txn, "abort", kv{"cause", cause})
		c.closeExec(t, ev, cause)
		t.attempt++
	case obs.Rerun:
		t.execPid = sitePid(ev.Site)
		c.begin(ev.At, t.execPid, ev.Txn, "attempt", kv{"n", itoa(uint32(t.attempt))})
	case obs.AuthRequest:
		c.closeShip(t, ev.At, ev.Txn)
		if !t.authOpen {
			t.authOpen = true
			c.begin(ev.At, centralPid, ev.Txn, "auth")
		}
		c.instant(ev.At, centralPid, ev.Txn, "auth request", kv{"site", strconv.Itoa(ev.Site)})
	case obs.AuthSeized:
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "auth seized", kv{"elem", itoa(ev.Elem)}, kv{"victims", ev.Annotation()})
	case obs.AuthAck:
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "auth ack")
	case obs.AuthNack:
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "auth nack", kv{"why", ev.Annotation()})
	case obs.TxnLocalCommit:
		c.closeExec(t, ev, "")
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "commit", kv{"where", "local"})
		c.closeTxn(t, ev.At, ev.Txn, "")
		delete(c.txns, ev.Txn)
	case obs.CentralCommit:
		if t.authOpen {
			t.authOpen = false
			c.end(ev.At, centralPid, ev.Txn, kv{"outcome", "commit"})
		}
		c.closeExec(t, ev, "")
		c.instant(ev.At, centralPid, ev.Txn, "commit", kv{"where", "central"})
		// The completion reply is now in flight toward the origin.
		t.replyOpen = true
		c.begin(ev.At, sitePid(t.home), ev.Txn, "reply")
	case obs.TxnReply:
		if t.replyOpen {
			t.replyOpen = false
			c.end(ev.At, sitePid(ev.Site), ev.Txn)
		}
		c.closeTxn(t, ev.At, ev.Txn, "")
		delete(c.txns, ev.Txn)
	case obs.UpdatesPropagated:
		c.instant(ev.At, sitePid(ev.Site), ev.Txn, "updates propagated", kv{"batch", ev.Annotation()})
	}
}

// ensureExec opens the current attempt's span if none is open — the first
// central event closes the ship+setup span, and an attempt restarted after
// a deadlock abort has no Rerun marker, so the span starts lazily at the
// attempt's first protocol event.
func (c *Collector) ensureExec(t *txnState, ev obs.Event) {
	if ev.Site < 0 {
		c.closeShip(t, ev.At, ev.Txn)
	}
	if t.execPid == 0 {
		t.execPid = sitePid(ev.Site)
		c.begin(ev.At, t.execPid, ev.Txn, "attempt", kv{"n", itoa(uint32(t.attempt))})
	}
}

// closeShip ends the transit+setup span once central execution shows signs
// of life.
func (c *Collector) closeShip(t *txnState, at float64, txn int64) {
	if t.shipOpen {
		t.shipOpen = false
		c.end(at, centralPid, txn)
	}
}

func (c *Collector) closeLockWait(t *txnState, at float64, txn int64) {
	if t.lockWaitOpen {
		t.lockWaitOpen = false
		c.end(at, t.lockWaitPid, txn)
	}
}

// closeExec ends the open attempt span, tagging the abort cause if any.
func (c *Collector) closeExec(t *txnState, ev obs.Event, abort string) {
	if ev.Site < 0 {
		// A central txn can abort at its commit point without ever issuing
		// a lock request on a re-run; the transit span may still be open.
		c.closeShip(t, ev.At, ev.Txn)
	}
	if t.execPid == 0 {
		return
	}
	if abort != "" {
		c.end(ev.At, t.execPid, ev.Txn, kv{"abort", abort})
	} else {
		c.end(ev.At, t.execPid, ev.Txn)
	}
	t.execPid = 0
}

func (c *Collector) closeTxn(t *txnState, at float64, txn int64, note string) {
	if !t.txnOpen {
		return
	}
	t.txnOpen = false
	if note != "" {
		c.end(at, sitePid(t.home), txn, kv{"note", note})
		return
	}
	c.end(at, sitePid(t.home), txn)
}

func itoa(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// flush closes every span still open at the end of the run (transactions in
// flight at the horizon), in arrival order so the export is deterministic.
func (c *Collector) flush() {
	for _, id := range c.order {
		t, ok := c.txns[id]
		if !ok {
			continue
		}
		c.closeLockWait(t, c.lastAt, id)
		if t.authOpen {
			t.authOpen = false
			c.end(c.lastAt, centralPid, id, kv{"outcome", "truncated"})
		}
		if t.execPid != 0 {
			c.end(c.lastAt, t.execPid, id, kv{"truncated", "true"})
			t.execPid = 0
		}
		if t.shipOpen {
			t.shipOpen = false
			c.end(c.lastAt, centralPid, id, kv{"truncated", "true"})
		}
		if t.replyOpen {
			t.replyOpen = false
			c.end(c.lastAt, sitePid(t.home), id, kv{"truncated", "true"})
		}
		c.closeTxn(t, c.lastAt, id, "truncated")
		delete(c.txns, id)
	}
	c.order = c.order[:0]
}

// WriteTo renders the collected spans as Chrome trace-event JSON. It closes
// any spans still open (end-of-run truncation), so call it once, after the
// run. The output is byte-deterministic for a deterministic run: field
// order, float formatting, and event order are all fixed.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	c.flush()
	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	// Process-name metadata: the central complex lane, then every site lane
	// that appears in the trace (plus the configured sites).
	seen := map[int]bool{centralPid: true}
	for i := 0; i < c.sites; i++ {
		seen[sitePid(i)] = true
	}
	for _, e := range c.events {
		seen[e.pid] = true
	}
	pids := make([]int, 0, len(seen))
	for pid := range seen {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	first := true
	for _, pid := range pids {
		name := "central complex"
		if pid != centralPid {
			name = "site " + strconv.Itoa(pid-2)
		}
		writeMeta(&buf, &first, pid, name)
	}
	for i := range c.events {
		writeEvent(&buf, &first, &c.events[i])
	}
	buf.WriteString("\n]}\n")
	return buf.WriteTo(w)
}

// WriteFile exports the trace to a file.
func (c *Collector) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMeta(buf *bytes.Buffer, first *bool, pid int, name string) {
	sep(buf, first)
	fmt.Fprintf(buf, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}", pid, strconv.Quote(name))
}

func writeEvent(buf *bytes.Buffer, first *bool, e *event) {
	sep(buf, first)
	buf.WriteByte('{')
	if e.ph != 'E' {
		buf.WriteString("\"name\":")
		buf.WriteString(strconv.Quote(e.name))
		buf.WriteString(",\"cat\":\"")
		buf.WriteString(e.cat)
		buf.WriteString("\",")
	}
	buf.WriteString("\"ph\":\"")
	buf.WriteByte(e.ph)
	buf.WriteString("\",\"ts\":")
	// Simulated seconds to trace microseconds, at fixed (nanosecond)
	// precision so the export is byte-stable.
	buf.WriteString(strconv.FormatFloat(e.ts*1e6, 'f', 3, 64))
	buf.WriteString(",\"pid\":")
	buf.WriteString(strconv.Itoa(e.pid))
	buf.WriteString(",\"tid\":")
	buf.WriteString(strconv.FormatInt(e.tid, 10))
	if e.ph == 'i' {
		buf.WriteString(",\"s\":\"t\"")
	}
	if len(e.args) > 0 {
		buf.WriteString(",\"args\":{")
		for i, a := range e.args {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.Quote(a.k))
			buf.WriteByte(':')
			buf.WriteString(strconv.Quote(a.v))
		}
		buf.WriteByte('}')
	}
	buf.WriteByte('}')
}

func sep(buf *bytes.Buffer, first *bool) {
	if *first {
		*first = false
		return
	}
	buf.WriteString(",\n")
}
