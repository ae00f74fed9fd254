package main

import (
	"testing"

	"aedbmls/internal/smoketest"
)

// TestMainSmoke runs a miniature tuning end to end, exercising the
// batched-neighborhood flag.
func TestMainSmoke(t *testing.T) {
	smoketest.Run(t, []string{"aedb-mls",
		"-density", "100", "-seed", "1",
		"-pops", "1", "-workers", "2", "-evals", "6", "-reset", "3",
		"-committee", "2", "-neighborhood", "2",
	}, main)
}
