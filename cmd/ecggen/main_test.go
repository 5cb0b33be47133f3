package main

import (
	"strings"
	"testing"
)

// TestParseArgsRefusesOutOfRange: each flag ecg.Config would silently
// replace by its default, or that is not a probability, is refused
// with an error naming the flag.
func TestParseArgsRefusesOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-dur", "-5"},
		{"-fs", "0"},
		{"-hr", "-50"},
		{"-pvc", "2"},
		{"-apb", "-1"},
	} {
		_, _, _, err := parseArgs(args)
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("%s: err %v, want an error naming %s", strings.Join(args, " "), err, args[0])
		}
	}
}

// TestParseArgsKeepsDefaults: the command's own defaults and in-range
// values pass through.
func TestParseArgsKeepsDefaults(t *testing.T) {
	cfg, out, ann, err := parseArgs([]string{"-hr", "0", "-pvc", "1", "-apb", "0", "-out", "rec.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Duration != 30 || cfg.Fs != 256 || cfg.Seed != 1 || cfg.Rhythm.PVCRate != 1 || out != "rec.csv" || ann != "" {
		t.Fatalf("config %+v, out %q, ann %q", cfg, out, ann)
	}
}
