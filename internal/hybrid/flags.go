package hybrid

// The command-line face of Config, shared by every binary that builds one:
// the simulator's hybridsim and the live cluster's hybridd and hybridload
// register the same flag set, so a knob has one name, one usage line and
// one parser everywhere.

import (
	"flag"
	"fmt"
	"strconv"
)

// ParseFeedback parses a feedback mode name (Feedback.String's output).
func ParseFeedback(s string) (Feedback, error) {
	for _, f := range []Feedback{FeedbackAuthOnly, FeedbackAllMessages, FeedbackIdeal} {
		if s == f.String() {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown feedback mode %q (auth-only, all-messages or ideal)", s)
}

// Set implements flag.Value.
func (f *Feedback) Set(s string) error {
	v, err := ParseFeedback(s)
	if err == nil {
		*f = v
	}
	return err
}

// uint32Flag is a flag.Value for a uint32 field.
type uint32Flag struct{ p *uint32 }

func (v uint32Flag) String() string {
	if v.p == nil {
		return "0"
	}
	return strconv.FormatUint(uint64(*v.p), 10)
}

func (v uint32Flag) Set(s string) error {
	n, err := strconv.ParseUint(s, 10, 32)
	if err == nil {
		*v.p = uint32(n)
	}
	return err
}

// ConfigFlags binds Config fields to command-line flags. Apply lays the
// flags the user passed over a base configuration, so a flag left out
// keeps the base's value, whatever that base is (DefaultConfig, a preset,
// or a live operating point).
type ConfigFlags struct {
	fs     *flag.FlagSet
	parsed Config                   // the flags' destinations
	copy   map[string]func(*Config) // per flag: copy its parsed value into a config
}

// RegisterConfigFlags registers the shared configuration flags on fs;
// defaults supplies the values -help shows.
func RegisterConfigFlags(fs *flag.FlagSet, defaults Config) *ConfigFlags {
	f := &ConfigFlags{fs: fs, parsed: defaults, copy: make(map[string]func(*Config))}
	BindFlag(f, "sites", "number of local sites", func(c *Config) *int { return &c.Sites }, fs.IntVar)
	BindFlag(f, "mips-local", "local processor speed, MIPS", func(c *Config) *float64 { return &c.LocalMIPS }, fs.Float64Var)
	BindFlag(f, "mips-central", "central processor speed, MIPS", func(c *Config) *float64 { return &c.CentralMIPS }, fs.Float64Var)
	BindFlag(f, "delay", "one-way communications delay, seconds (emulated at the receiver in a live cluster)", func(c *Config) *float64 { return &c.CommDelay }, fs.Float64Var)
	BindFlag(f, "rate", "arrival rate per site, txn/s (a live cluster's load generator default)", func(c *Config) *float64 { return &c.ArrivalRatePerSite }, fs.Float64Var)
	BindFlag(f, "plocal", "fraction of class A (local-data) transactions", func(c *Config) *float64 { return &c.PLocal }, fs.Float64Var)
	BindFlag(f, "pwrite", "probability a lock request is exclusive", func(c *Config) *float64 { return &c.PWrite }, fs.Float64Var)
	BindFlag(f, "calls", "database calls per transaction", func(c *Config) *int { return &c.CallsPerTxn }, fs.IntVar)
	BindFlag(f, "lockspace", "total lock elements, partitioned across sites", func(c *Config) *uint32 { return &c.Lockspace }, func(p *uint32, name string, _ uint32, usage string) { fs.Var(uint32Flag{p}, name, usage) })
	BindFlag(f, "instr-call", "instructions per database call", func(c *Config) *float64 { return &c.InstrPerCall }, fs.Float64Var)
	BindFlag(f, "instr-overhead", "initiation + message instructions per transaction", func(c *Config) *float64 { return &c.InstrOverhead }, fs.Float64Var)
	BindFlag(f, "io-call", "I/O seconds per database call (first run)", func(c *Config) *float64 { return &c.IOTimePerCall }, fs.Float64Var)
	BindFlag(f, "io-setup", "setup I/O seconds before locks are held", func(c *Config) *float64 { return &c.SetupIOTime }, fs.Float64Var)
	BindFlag(f, "restart-delay", "delay before re-running an aborted transaction, seconds", func(c *Config) *float64 { return &c.RestartDelay }, fs.Float64Var)
	BindFlag(f, "feedback", "central-state feedback: auth-only, all-messages or ideal (simulator only)", func(c *Config) *Feedback { return &c.Feedback }, func(p *Feedback, name string, _ Feedback, usage string) { fs.Var(p, name, usage) })
	BindFlag(f, "seed", "random seed (a live cluster forks strategies with it; the load generator seeds the workload)", func(c *Config) *uint64 { return &c.Seed }, fs.Uint64Var)
	BindFlag(f, "skew", "Zipf exponent of the lock-reference distribution (0 = uniform)", func(c *Config) *float64 { return &c.SkewTheta }, fs.Float64Var)
	BindFlag(f, "hot-fraction", "fraction of each partition replicated at central (1 = full replication)", func(c *Config) *float64 { return &c.CentralHotFraction }, fs.Float64Var)
	BindFlag(f, "cold-fetch", "seconds a central execution waits to fetch a cold element, first run only", func(c *Config) *float64 { return &c.ColdFetchDelay }, fs.Float64Var)
	return f
}

// BindFlag binds one more Config field to a flag of f's set — a binary's
// own knobs — with register (fs.IntVar, fs.Float64Var, ...) declaring it.
func BindFlag[T any](f *ConfigFlags, name, usage string, field func(*Config) *T, register func(p *T, name string, value T, usage string)) {
	p := field(&f.parsed)
	register(p, name, *p, usage)
	f.copy[name] = func(dst *Config) { *field(dst) = *p }
}

// Apply returns base with the value of every bound flag the user passed.
// Call it after fs.Parse.
func (f *ConfigFlags) Apply(base Config) Config {
	f.fs.Visit(func(fl *flag.Flag) {
		if copyTo, ok := f.copy[fl.Name]; ok {
			copyTo(&base)
		}
	})
	return base
}
