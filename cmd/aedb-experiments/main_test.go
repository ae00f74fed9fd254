package main

import (
	"testing"

	"aedbmls/internal/smoketest"
)

func TestMainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run is too slow for -short")
	}
	smoketest.Run(t, []string{"aedb-experiments",
		"-scale", "tiny", "-only", "mobility",
	}, main)
}
