package main

import (
	"flag"
	"reflect"
	"slices"
	"testing"

	"autohet/internal/des"
)

// runArgs runs the command on args and returns its Result with the
// wall-clock fields zeroed.
func runArgs(args ...string) (*des.Result, error) {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	res, err := run(o)
	if err != nil {
		return nil, err
	}
	res.WallSeconds, res.SpeedupVsWall, res.EventsPerSec = 0, 0, 0
	return res, nil
}

// One set of flags gives one Result, paced or not: both runs build the same
// config and generator, and the paced runtime steps the same core.
func TestPacedMatchesUnpaced(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fault injection", []string{"-model", "AlexNet", "-spec", "3*128x128", "-fault-replica", "g0-0",
			"-batch", "16", "-batch-timeout", "2000", "-policy", "rr", "-requests", "4000", "-load", "0.6"}},
		{"sharded VGG16", []string{"-model", "VGG16", "-spec", "4*128x128", "-shards", "4",
			"-replicas", "8", "-requests", "2000", "-queue", "2000", "-load", "0.8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paced, err := runArgs(slices.Concat(tc.args, []string{"-timescale", "1e-9"})...)
			if err != nil {
				t.Fatal(err)
			}
			unpaced, err := runArgs(slices.Concat(tc.args, []string{"-timescale", "0"})...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(paced, unpaced) {
				t.Errorf("paced and unpaced Results differ:\npaced   %v\nunpaced %v", paced, unpaced)
			}
			if unpaced.Completed+unpaced.Shed != unpaced.Offered {
				t.Errorf("%v: %d failed, %d expired, %d unroutable; want every request completed or shed",
					unpaced, unpaced.Failed, unpaced.Expired, unpaced.Unroutable)
			}
		})
	}
}

// An infinite load, a negative or NaN budget, a scale target outside (0,1]
// and a negative or NaN queue cap are errors on either path.
func TestRunRejectsBadFlags(t *testing.T) {
	base := []string{"-model", "AlexNet", "-spec", "2*128x128", "-requests", "100"}
	for _, bad := range [][]string{{"-load", "Inf"}, {"-budget", "-5"}, {"-budget", "NaN"},
		{"-scale-target", "2"}, {"-scale-target", "NaN"}, {"-scale-target", "-0.5"},
		{"-admit-queue-cap", "-1"}, {"-admit-queue-cap", "NaN"}} {
		for _, ts := range []string{"1e-9", "0"} {
			args := slices.Concat(base, bad, []string{"-timescale", ts})
			if _, err := runArgs(args...); err == nil {
				t.Errorf("%v: no error", args)
			}
		}
	}
}
