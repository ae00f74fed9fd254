package main

import (
	"testing"

	"aedbmls/internal/smoketest"
)

func TestMainSmoke(t *testing.T) {
	smoketest.Run(t, []string{"aedb-moea",
		"-alg", "nsga2", "-density", "100", "-seed", "1",
		"-pop", "4", "-evals", "8", "-committee", "2",
		"-scenario-workers", "2", "-exact-physics",
	}, main)
}
