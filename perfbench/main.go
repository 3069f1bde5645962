// Command perfbench is the repository's benchmark. One invocation runs one
// named workload and prints, as the last line of standard output, a JSON
// object with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload sim-paper16 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics of a separate
// traced run. Every run checks the program's outputs and counts each failed
// check against the operations attempted. README.md lists the workloads, the
// metrics, the layer each per-layer metric belongs to and the end-to-end
// metric it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed a run uses when --seed is not given. README.md
// names a second, held-out seed for checking a later performance claim on
// inputs its author did not tune against.
const defaultSeed = 1

// maxProcs caps the parallelism every workload uses: no more than two
// shards, two client connections or two scheduler threads.
const maxProcs = 2

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampled is a measured value with the number of samples behind it.
type sampled struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is the result line, printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo fingerprints the machine a record was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

// record is the complete, human-readable account of one run, printed before
// the result line and written under --out.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Host       hostInfo           `json:"host"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]sampled `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	// SelfMs is each layer's self time in milliseconds, derived from the
	// traced run's spans; SpanCount and SpanFile describe those spans.
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	SpanCount int                `json:"span_count,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// checks counts the output checks of a run: every checked operation is
// attempted, and every failed check is a failure.
type checks struct {
	attempted int64
	failed    int64
	failures  []string
}

// maxFailureNotes bounds the failure messages kept for the record.
const maxFailureNotes = 20

// ok records one checked operation; when good is false it counts as failed
// and the message is kept.
func (c *checks) ok(good bool, format string, args ...any) {
	c.attempted++
	if good {
		return
	}
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// bulk records n checked operations of which failed failed.
func (c *checks) bulk(n, failed int64, what string) {
	c.attempted += n
	c.failed += failed
	if failed > 0 && len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf("%d of %d %s failed", failed, n, what))
	}
}

// run is everything one workload invocation needs.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for records and span files; "" writes none

	chk checks
	rec record
}

// workloadFunc runs one workload in the requested mode, filling r.rec.
type workloadFunc func(r *run) error

var workloads = map[string]workloadFunc{
	"sim-skew1000-sharded": func(r *run) error { return runSim(r, skew1000) },
	"sim-paper16":          func(r *run) error { return runSim(r, paper16) },
	"live-loopback":        runLive,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

// mainErr parses the flags, runs the workload and prints its record and
// result. It returns the process exit code: 0 when every check passed, 1
// when a check failed, 2 on a usage or set-up error (no result printed).
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := fs.String("out", "", "directory for the run record and span file (empty: write none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (workloads: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out,
	}
	r.rec = record{Workload: r.workload, Seed: r.seed, Trace: r.trace, Seconds: r.seconds, Host: fingerprint()}
	if r.out != "" {
		if err := os.MkdirAll(r.out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 2
	}
	res, err := r.finish()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 2
	}
	recJSON, err := json.MarshalIndent(r.rec, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if r.out != "" {
		path := filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, *trace))
		if err := os.WriteFile(path, append(recJSON, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%s\n%s\n", recJSON, line)
	if err := w.Flush(); err != nil {
		return 2
	}
	if !res.Correct {
		for _, f := range r.chk.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// finish builds the result line from the record: the end-to-end metrics
// in an untraced run, the per-layer metrics in a traced one.
func (r *run) finish() (result, error) {
	r.rec.Attempted, r.rec.Failed = r.chk.attempted, r.chk.failed
	r.rec.Failures = r.chk.failures
	if r.chk.attempted < 1 {
		return result{}, errors.New("no operation was checked")
	}
	r.rec.FailedFrac = float64(r.chk.failed) / float64(r.chk.attempted)
	res := result{
		Correct:   r.chk.failed == 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   map[string]metric{},
	}
	if r.trace {
		for _, m := range perLayerMetrics {
			v, ok := r.rec.PerLayer[m.name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = v
		}
	} else {
		for _, m := range endToEndMetrics {
			v, ok := r.rec.EndToEnd[m.name]
			if !ok {
				return result{}, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// e2e records an end-to-end metric.
func (r *run) e2e(name string, value float64, unit string, samples int) {
	if r.rec.EndToEnd == nil {
		r.rec.EndToEnd = map[string]sampled{}
	}
	r.rec.EndToEnd[name] = sampled{Value: value, Unit: unit, Samples: samples}
}

// layer records a per-layer metric under its registered unit.
func (r *run) layer(name string, value float64) {
	if r.rec.PerLayer == nil {
		r.rec.PerLayer = map[string]metric{}
	}
	r.rec.PerLayer[name] = metric{Value: value, Unit: perLayerUnit(name)}
}

// note adds a line to the record.
func (r *run) note(format string, args ...any) {
	r.rec.Notes = append(r.rec.Notes, fmt.Sprintf(format, args...))
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
