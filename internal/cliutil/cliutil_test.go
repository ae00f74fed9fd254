package cliutil

import (
	"flag"
	"io"
	"testing"

	"aedbmls/internal/eval"
)

// TestEvalFlags parses each flag set through AddEvalFlags and Build: the
// valid ones must land in the matching eval.Settings, the invalid ones
// (a bad rung, a negative slack, a slack without a rung, the retired
// -reference-path) must fail instead of being dropped.
func TestEvalFlags(t *testing.T) {
	defer func(saved *flag.FlagSet) { flag.CommandLine = saved }(flag.CommandLine)
	for _, tc := range []struct {
		name string
		args []string
		want eval.Settings
		bad  bool
	}{
		{name: "defaults", want: eval.Settings{}},
		{name: "engine", args: []string{"-exact-physics"},
			want: eval.Settings{ExactPhysics: true}},
		{name: "reference-path-retired", args: []string{"-reference-path"}, bad: true},
		{name: "ladder", args: []string{"-fidelity", "3:0.5"},
			want: eval.Settings{Fidelity: eval.Fidelity{Committee: 3, Horizon: 0.5}}},
		{name: "ladder-eps", args: []string{"-fidelity", "2", "-promote-eps", "0.05"},
			want: eval.Settings{Fidelity: eval.Fidelity{Committee: 2}, PromoteEps: 0.05}},
		{name: "zero-eps-ladder-off", args: []string{"-promote-eps", "0"}, want: eval.Settings{}},
		{name: "bad-rung", args: []string{"-fidelity", "x"}, bad: true},
		{name: "bad-horizon", args: []string{"-fidelity", "2:1.5"}, bad: true},
		{name: "eps-ladder-off", args: []string{"-promote-eps", "0.1"}, bad: true},
		{name: "eps-negative", args: []string{"-fidelity", "2", "-promote-eps", "-0.1"}, bad: true},
	} {
		flag.CommandLine = flag.NewFlagSet(tc.name, flag.ContinueOnError)
		flag.CommandLine.SetOutput(io.Discard)
		ef := AddEvalFlags()
		if err := flag.CommandLine.Parse(tc.args); err != nil {
			if !tc.bad {
				t.Fatalf("%s: parse: %v", tc.name, err)
			}
			continue
		}
		got, err := ef.Build()
		switch {
		case tc.bad && err == nil:
			t.Errorf("%s: accepted %v as %+v", tc.name, tc.args, got)
		case !tc.bad && err != nil:
			t.Errorf("%s: rejected %v: %v", tc.name, tc.args, err)
		case !tc.bad && got != tc.want:
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
