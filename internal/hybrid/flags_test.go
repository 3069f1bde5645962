package hybrid

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func newFlagSet() (*flag.FlagSet, *ConfigFlags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := RegisterConfigFlags(fs, DefaultConfig())
	BindFlag(cf, "warmup", "warmup", func(c *Config) *float64 { return &c.Warmup }, fs.Float64Var)
	return fs, cf
}

// TestConfigFlagsApplyOnlyPassed: the flags a user passes override the
// base; every other field keeps the base's value, not the registered
// default.
func TestConfigFlagsApplyOnlyPassed(t *testing.T) {
	fs, cf := newFlagSet()
	if err := fs.Parse([]string{"-sites", "5", "-feedback", "ideal", "-lockspace", "1000", "-warmup", "3"}); err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.CentralMIPS = 99 // a preset's value
	base.Duration = 7
	got := cf.Apply(base)
	want := base
	want.Sites, want.Feedback, want.Lockspace, want.Warmup = 5, FeedbackIdeal, 1000, 3
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply = %+v\nwant    %+v", got, want)
	}

	fs, cf = newFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := cf.Apply(base); !reflect.DeepEqual(got, base) {
		t.Errorf("Apply without flags changed the base: %+v", got)
	}
}

func TestConfigFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-feedback", "psychic"},
		{"-lockspace", "8589934592"}, // above uint32
		{"-sites", "many"},
	} {
		fs, _ := newFlagSet()
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestParseFeedbackRoundTrips(t *testing.T) {
	for _, f := range []Feedback{FeedbackAuthOnly, FeedbackAllMessages, FeedbackIdeal} {
		got, err := ParseFeedback(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFeedback(%q) = %v, %v", f.String(), got, err)
		}
	}
}
