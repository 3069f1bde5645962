package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

// TestWorkloadsSelfTest runs every workload briefly in both modes and
// checks that its result line is complete and correct.
func TestWorkloadsSelfTest(t *testing.T) {
	for _, name := range workloadNames() {
		if testing.Short() && name != "live-loopback" {
			continue
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := mainErr([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEndMetrics
				if trace == "1" {
					defs = perLayerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-paper16", "--trace", "2"},
		{"--workload", "sim-paper16", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := mainErr(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %q on stdout, want 2 and nothing", args, code, stdout.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{name: "bench.run", start: 0, end: 100, parent: -1})
	tr.add(span{name: "hybrid.Engine.Run", start: 10, end: 90, parent: root})
	run := 1
	// Two concurrent children overlapping on [30,50]: covered once.
	tr.add(span{name: "routing.Decide", start: 20, end: 50, parent: run})
	tr.add(span{name: "routing.Decide", start: 30, end: 60, parent: run})
	got := tr.selfMs()
	want := map[string]float64{"bench": 20e-6, "hybrid": 40e-6, "routing": 60e-6}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}
