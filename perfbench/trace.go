package main

// Spans of the traced run. The benchmark records a span around each of its
// own calls into a layer's public functions (spans inside the program are
// not used), keeps them in memory, derives each layer's self time from them
// and writes them out at the end as Chrome trace-event JSON with
// internal/obsx/spans.

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"hybriddb/internal/obsx/spans"
)

// Trace lanes: a lane is one goroutine's stack of nested spans. Spans of a
// transaction use the transaction ID as their lane; the fixed lanes below
// are negative so they never collide with one.
const (
	laneMain    int64 = -1
	laneExec    int64 = -2
	laneSampler int64 = -3
	laneSite0   int64 = -100 // routing.Decide spans of site i use laneSite0-i
)

// span is one timed call: name, start, end, parent and transaction ID.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int   // index of the parent span; -1 for a root
	txn        int64 // transaction ID; 0 when the span belongs to none
	lane       int64
}

// tracer holds the spans of one traced run. Its methods are not safe for
// concurrent use: concurrent producers keep their own spans and add them
// after they have been joined.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's timebase.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// begin opens a span on the main lane at the current time and returns its
// index for end.
func (t *tracer) begin(name string, parent int) int {
	return t.add(span{name: name, start: t.at(time.Now()), parent: parent, lane: laneMain})
}

// end closes span i at the current time.
func (t *tracer) end(i int) { t.spans[i].end = t.at(time.Now()) }

// add appends a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerOf returns the module a span name belongs to: the prefix before the
// first dot ("hybrid.Engine.Run" -> "hybrid").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfMs returns each layer's self time in milliseconds: the summed
// durations of its spans minus the part of each span's interval that its
// child spans cover (children running concurrently are counted once).
func (t *tracer) selfMs() map[string]float64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]float64{}
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range t.spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(t.spans[c].start, s.start), min(t.spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		out[layerOf(s.name)] += float64(s.end-s.start-covered) / 1e6
	}
	return out
}

// write renders the spans through an obsx/spans recorder to path and
// returns the number of events the recorder dropped at its cap. Each lane
// is written depth first, so its begin/end events nest.
func (t *tracer) write(path, proc string) (uint64, error) {
	rec := spans.NewRecorder(proc, 1, 0)
	byLane := map[int64][]int{}
	var lanes []int64
	for i, s := range t.spans {
		if _, seen := byLane[s.lane]; !seen {
			lanes = append(lanes, s.lane)
		}
		byLane[s.lane] = append(byLane[s.lane], i)
	}
	children := make([][]int, len(t.spans))
	for _, lane := range lanes {
		var roots []int
		for _, i := range byLane[lane] {
			if p := t.spans[i].parent; p >= 0 && t.spans[p].lane == lane {
				children[p] = append(children[p], i)
			} else {
				roots = append(roots, i)
			}
		}
		var emit func(i int)
		emit = func(i int) {
			s := t.spans[i]
			args := []spans.KV{{K: "parent", V: "none"}}
			if s.parent >= 0 {
				args[0].V = t.spans[s.parent].name
			}
			if s.txn != 0 {
				args = append(args, spans.KV{K: "txn", V: strconv.FormatInt(s.txn, 10)})
			}
			rec.Begin(float64(s.start)/1e9, lane, s.name, args...)
			kids := children[i]
			sort.SliceStable(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
			for _, c := range kids {
				emit(c)
			}
			rec.End(float64(s.end)/1e9, lane)
		}
		sort.SliceStable(roots, func(a, b int) bool { return t.spans[roots[a]].start < t.spans[roots[b]].start })
		for _, i := range roots {
			emit(i)
		}
	}
	return rec.Dropped(), rec.WriteFile(path)
}
