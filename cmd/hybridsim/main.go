// Command hybridsim runs one simulation of the hybrid distributed–
// centralized database system and prints the measured result.
//
// Example:
//
//	hybridsim -rate 2.5 -strategy best -delay 0.2 -duration 800
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"hybriddb/internal/experiments"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/manifest"
	"hybriddb/internal/obsx/progress"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/replicate"
	"hybriddb/internal/report"
	"hybriddb/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	def := hybrid.DefaultConfig()
	cf := hybrid.RegisterConfigFlags(fs, def)
	// The run's own Config knobs, applied like the shared ones: only when
	// passed, over the defaults or the preset.
	hybrid.BindFlag(cf, "warmup", "warmup period discarded from statistics (s)", func(c *hybrid.Config) *float64 { return &c.Warmup }, fs.Float64Var)
	hybrid.BindFlag(cf, "duration", "measured simulated duration (s)", func(c *hybrid.Config) *float64 { return &c.Duration }, fs.Float64Var)
	hybrid.BindFlag(cf, "epoch", "epoch length for batched update propagation, seconds (0 = per-commit async)", func(c *hybrid.Config) *float64 { return &c.EpochLength }, fs.Float64Var)
	hybrid.BindFlag(cf, "selfcheck", "run simulator invariant checks (slower)", func(c *hybrid.Config) *bool { return &c.SelfCheck }, fs.BoolVar)
	hybrid.BindFlag(cf, "shards", "event-queue shards for the parallel core (0/1 = sequential); results are bit-identical either way", func(c *hybrid.Config) *int { return &c.Shards }, fs.IntVar)
	var (
		preset   = fs.String("preset", "", "named configuration preset: "+strings.Join(presetNames(), ", ")+"; explicit flags override preset values")
		strategy = fs.String("strategy", "best", "routing strategy: "+strings.Join(experiments.StrategyNames(), ", "))
		parallel = fs.Int("parallel", 0, "worker goroutines for replications (0 = GOMAXPROCS); affects speed only, never results")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
		spansOut = fs.String("spans", "", "write a Chrome trace-event span file of the run (open in Perfetto); single runs only")
		maniOut  = fs.String("manifest", "", "write a machine-readable run manifest (RUN_*.json) to this file")
		progFlg  = fs.Bool("progress", false, "print replication progress to stderr")
		dbgAddr  = fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	var reps int
	fs.IntVar(&reps, "replications", 1, "independent replications (>1 adds confidence intervals)")
	fs.IntVar(&reps, "reps", 1, "shorthand for -replications")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := def
	if *preset != "" {
		if err := applyPreset(*preset, &cfg); err != nil {
			return err
		}
	}
	cfg = cf.Apply(cfg)
	if cfg.Shards < 0 {
		return fmt.Errorf("-shards must be non-negative (0 or 1 runs sequentially), got %d", cfg.Shards)
	}

	if *maniOut != "" {
		// Manifests carry full histogram dumps, so ask the engine to keep them.
		cfg.CaptureHistograms = true
	}

	maker, err := experiments.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	if *dbgAddr != "" {
		addr, err := progress.StartDebugServer(*dbgAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hybridsim: debug server on http://%s/debug/pprof (expvar at /debug/vars)\n", addr)
	}

	// Profiling hooks: hot-path regressions in the event kernel, lock
	// manager, or lifecycle layers are diagnosed with pprof on a real run
	// rather than by editing benchmark code.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			// An explicit GC makes the heap profile reflect live steady-state
			// structures (pools, heaps, tables) instead of collectible garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hybridsim: memprofile:", err)
			}
			f.Close()
		}()
	}

	start := time.Now()
	if reps > 1 {
		if *spansOut != "" {
			return fmt.Errorf("-spans records a single run; drop -replications")
		}
		if cfg.Shards > 1 {
			if s := shardFallbackReason(cfg); s != "" {
				fmt.Fprintf(os.Stderr, "hybridsim: note: -shards %d ignored, running sequentially: %s\n", cfg.Shards, s)
			}
		}
		// Ctrl-C / SIGTERM stops dispatching further replications; the ones
		// in flight finish, and everything measured so far is still
		// reported and flushed to the manifest.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		popt := runner.Options{Parallelism: *parallel, Context: ctx}
		if *progFlg {
			popt.Progress = progress.NewTicker(os.Stderr, time.Second).Callback
		}
		summary, err := replicate.RunOpts(cfg, maker.Make, reps, popt)
		if err != nil && summary.Replications == 0 {
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybridsim: interrupted (%v); reporting the %d of %d replications that completed\n",
				err, summary.Replications, reps)
		}
		if *maniOut != "" {
			m := manifest.New("hybridsim", fmt.Sprintf("%s, %d replications", *strategy, summary.Replications))
			for i, r := range summary.Results {
				if r.Window <= 0 {
					continue // replication cancelled before it started
				}
				runCfg := cfg
				runCfg.Seed = cfg.Seed + uint64(i)
				m.Add(fmt.Sprintf("replication %d", i), runCfg, r)
			}
			m.Finish(time.Since(start))
			if err := m.WriteFile(*maniOut); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "hybridsim: wrote run manifest to %s\n", *maniOut)
		}
		for _, r := range summary.Results {
			if r.Window > 0 {
				warnClipped(r)
			}
		}
		if werr := report.WriteReplication(out, summary); werr != nil {
			return werr
		}
		return err
	}
	strat, err := maker.Make(cfg)
	if err != nil {
		return err
	}
	engine, err := hybrid.New(cfg, strat)
	if err != nil {
		return err
	}
	var collector *spans.Collector
	if *spansOut != "" {
		collector = spans.NewCollector(cfg.Sites)
		engine.Subscribe(collector)
	}
	r := engine.Run()
	if cfg.Shards > 1 && !engine.Parallel() {
		reason := "an external observer is attached (-spans needs the single ordered event stream)"
		if s := shardFallbackReason(cfg); s != "" {
			reason = s
		}
		fmt.Fprintf(os.Stderr, "hybridsim: note: -shards %d ignored, ran sequentially: %s\n", cfg.Shards, reason)
	}
	if collector != nil {
		if err := collector.WriteFile(*spansOut); err != nil {
			return err
		}
		if n := collector.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "hybridsim: span buffer full; %d transactions not traced (raise spans.Collector.MaxEvents or shorten the run)\n", n)
		}
		fmt.Fprintf(os.Stderr, "hybridsim: wrote %d span events to %s (open in Perfetto: https://ui.perfetto.dev)\n", collector.Events(), *spansOut)
	}
	if *maniOut != "" {
		m := manifest.New("hybridsim", *strategy)
		m.Add("single", cfg, r)
		m.Finish(time.Since(start))
		if err := m.WriteFile(*maniOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hybridsim: wrote run manifest to %s\n", *maniOut)
	}
	warnClipped(r)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "strategy\t%s\n", r.Strategy)
	fmt.Fprintf(tw, "offered load\t%.1f tps total (%.2f/site x %d sites)\n",
		cfg.ArrivalRatePerSite*float64(cfg.Sites), cfg.ArrivalRatePerSite, cfg.Sites)
	fmt.Fprintf(tw, "throughput\t%.2f tps\n", r.Throughput)
	fmt.Fprintf(tw, "mean response time\t%.3f s (p95 %.3f s)\n", r.MeanRT, r.P95RT)
	fmt.Fprintf(tw, "  percentiles\tp50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f s\n",
		r.RTPercentiles.P50, r.RTPercentiles.P90, r.RTPercentiles.P95, r.RTPercentiles.P99)
	fmt.Fprintf(tw, "  class A local\t%.3f s (%d txns)\n", r.MeanRTLocalA, r.CompletedLocalA)
	fmt.Fprintf(tw, "  class A shipped\t%.3f s (%d txns)\n", r.MeanRTShippedA, r.CompletedShippedA)
	fmt.Fprintf(tw, "  class B\t%.3f s (%d txns)\n", r.MeanRTClassB, r.CompletedClassB)
	fmt.Fprintf(tw, "ship fraction\t%.3f of class A\n", r.ShipFraction)
	fmt.Fprintf(tw, "utilization\tlocal mean %.2f (max %.2f), central %.2f\n",
		r.UtilLocalMean, r.UtilLocalMax, r.UtilCentral)
	fmt.Fprintf(tw, "aborts\tdeadlock %d/%d, seized %d, NACK %d, invalidated %d\n",
		r.AbortsDeadlockLocal, r.AbortsDeadlockCentral,
		r.AbortsLocalSeized, r.AbortsCentralNACK, r.AbortsCentralInval)
	fmt.Fprintf(tw, "mean lock wait\t%.4f s\n", r.MeanLockWait)
	fmt.Fprintf(tw, "network messages\t%d (auth rounds %d)\n", r.MessagesSent, r.AuthRounds)
	return nil
}

func presetNames() []string { return []string{"scale1000"} }

// applyPreset overwrites cfg with a named preset's values. Flags the user
// passed explicitly still win — run() applies them over the preset.
func applyPreset(name string, cfg *hybrid.Config) error {
	switch name {
	case "scale1000":
		// The paper's §4.1 system scaled 100x: 1000 local sites with the
		// shared hardware grown in proportion — central CPU 15 -> 1500 MIPS,
		// lockspace 32,768 -> 3,276,800 elements — and every per-site
		// parameter unchanged, so each site sees the paper's workload. The
		// horizon is sized for a ~10^7-transaction run (1000 sites x 1
		// txn/s x 10,000 simulated seconds); shorten it with -duration for
		// a quick look. Shards default to GOMAXPROCS: the sweet spot is
		// one worker per core, not one per site.
		cfg.Sites = 1000
		cfg.CentralMIPS = 1500
		cfg.Lockspace = 3_276_800
		cfg.Warmup = 200
		cfg.Duration = 9800
		cfg.Shards = runtime.GOMAXPROCS(0)
		return nil
	}
	return fmt.Errorf("unknown preset %q (presets: %s)", name, strings.Join(presetNames(), ", "))
}

// shardFallbackReason names the configuration property that forces the
// engine to ignore Shards>1 and run sequentially, or "" if the
// configuration itself can shard (an attached observer can still force
// sequential; the engine reports that case via Parallel()). Mirrors the
// eligibility test in the engine's setupRunMode.
func shardFallbackReason(cfg hybrid.Config) string {
	switch {
	case cfg.CommDelay <= 0:
		return "zero -delay leaves no conservative lookahead window"
	case cfg.Feedback == hybrid.FeedbackIdeal:
		return "ideal feedback reads central state with no delay"
	}
	return ""
}

// warnClipped flags histogram overflow: observations above the bucketed
// range are clamped to the ceiling, so upper percentiles are underestimates
// and the run's numbers should not be quoted without this caveat.
func warnClipped(r hybrid.Result) {
	if r.ClipAll.Over == 0 {
		return
	}
	completed := r.CompletedLocalA + r.CompletedShippedA + r.CompletedClassB
	fmt.Fprintf(os.Stderr,
		"hybridsim: warning: %s: %d of %d response times exceeded the histogram range; p95/p99 are underestimates\n",
		r.Strategy, r.ClipAll.Over, completed)
}
