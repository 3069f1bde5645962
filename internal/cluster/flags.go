package cluster

// Shared CLI flag plumbing for cmd/hybridd and cmd/hybridload. Every node
// of a cluster and its load generator must agree on the configuration (the
// workload shape decides partitioning and routing; the service times decide
// the emulation), so both binaries register the same flag set and the
// operator passes the same values to each process.

import (
	"flag"

	"hybriddb/internal/hybrid"
)

// DefaultLiveConfig is the default operating point of the live binaries: the
// simulator's default workload shape with service times scaled down 10x
// (millisecond range), so a loopback cluster on one machine emulates
// faithfully — wall-clock timer slop stays small relative to every burst —
// and a demo run completes in seconds. Override any knob by flag.
func DefaultLiveConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Sites = 4
	cfg.CommDelay = 0.02
	cfg.ArrivalRatePerSite = 8
	cfg.InstrPerCall = 3000
	cfg.InstrOverhead = 15000
	cfg.IOTimePerCall = 0.0025
	cfg.SetupIOTime = 0.0035
	cfg.RestartDelay = 0.01
	cfg.Feedback = hybrid.FeedbackAllMessages
	return cfg
}

// ConfigFlags is hybrid's shared configuration flag set with the live
// operating point as its base.
type ConfigFlags struct{ *hybrid.ConfigFlags }

// RegisterConfigFlags registers the shared configuration flags on fs with
// DefaultLiveConfig defaults.
func RegisterConfigFlags(fs *flag.FlagSet) ConfigFlags {
	return ConfigFlags{hybrid.RegisterConfigFlags(fs, DefaultLiveConfig())}
}

// Config lays the passed flags over DefaultLiveConfig and validates the
// result for a live cluster.
func (f ConfigFlags) Config() (hybrid.Config, error) {
	cfg := f.Apply(DefaultLiveConfig())
	return cfg, validate(cfg)
}
