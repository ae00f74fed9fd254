// Package cliutil carries the few helpers the cmd/ binaries share, so
// every CLI presents the same -h surface: a one-paragraph header naming
// the binary and the paper experiments it reproduces, followed by the
// standard flag listing (see cmd/README.md for the full binary/flag to
// experiment map).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aedbmls/internal/eval"
	"aedbmls/internal/study"
)

// SetUsage installs a flag.Usage that prints a named header paragraph
// above the default flag listing. Call it before flag.Parse.
func SetUsage(name, description string) {
	out := flag.CommandLine.Output()
	flag.Usage = func() {
		fmt.Fprintf(out, "%s — %s\n\nusage: %s [flags]\n\nflags:\n", name, description, name)
		flag.PrintDefaults()
	}
}

// StopOnSignals returns a channel that is closed on the first SIGINT or
// SIGTERM — the optimizers then exit at their next iteration boundary,
// writing a consistent checkpoint first when one is configured. A second
// signal skips the graceful path and exits immediately with status 130.
func StopOnSignals() <-chan struct{} {
	stop := make(chan struct{})
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "\nsignal received: stopping at the next boundary (checkpoint will be saved; signal again to exit immediately)")
		close(stop)
		<-ch
		os.Exit(130)
	}()
	return stop
}

// WriteReadyFile atomically publishes a small coordination file (for
// the server binaries' -port-file flag: the bound address appears only
// as a complete file, so a watcher never reads a torn write). The file
// is written next to its final path and renamed into place.
func WriteReadyFile(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// CheckpointFlags holds the shared -checkpoint/-resume/-checkpoint-every
// command-line surface.
type CheckpointFlags struct {
	Path   string
	Resume string
	Every  int64
}

// AddCheckpointFlags registers the three checkpoint flags on the default
// FlagSet. Call before flag.Parse.
func AddCheckpointFlags() *CheckpointFlags {
	cf := &CheckpointFlags{}
	flag.StringVar(&cf.Path, "checkpoint", "", "checkpoint file path; written atomically every -checkpoint-every evaluations and at completion")
	flag.StringVar(&cf.Resume, "resume", "", "resume from this checkpoint file (implies -checkpoint to the same path unless set)")
	flag.Int64Var(&cf.Every, "checkpoint-every", 500, "evaluations between checkpoint saves (0: only the final checkpoint)")
	return cf
}

// Build resolves the flags into a save controller and a loaded resume
// checkpoint (either may be nil). -resume with no -checkpoint continues
// checkpointing to the resumed file.
func (cf *CheckpointFlags) Build() (*study.Controller, *study.Checkpoint, error) {
	path := cf.Path
	var resume *study.Checkpoint
	if cf.Resume != "" {
		cp, err := study.Load(cf.Resume)
		if err != nil {
			return nil, nil, fmt.Errorf("cannot resume: %w", err)
		}
		resume = cp
		if path == "" {
			path = cf.Resume
		}
	}
	if path == "" {
		return nil, nil, nil
	}
	return &study.Controller{Path: path, Every: cf.Every}, resume, nil
}

// EvalFlags holds the shared evaluation-settings command-line surface:
// one flag per eval.Settings field.
type EvalFlags struct {
	settings eval.Settings
	fidelity string
}

// AddEvalFlags registers -exact-physics, -fidelity and -promote-eps on
// the default FlagSet.
// Call before flag.Parse.
func AddEvalFlags() *EvalFlags {
	ef := &EvalFlags{}
	flag.BoolVar(&ef.settings.ExactPhysics, "exact-physics", false, "reference per-call path-loss physics instead of the fused d2-space kernel (paper-exact energy bits, slower)")
	flag.StringVar(&ef.fidelity, "fidelity", "off", "multi-fidelity screening rung as COMMITTEE[:HORIZON], e.g. 3 or 3:0.5 (off = full fidelity everywhere)")
	flag.Float64Var(&ef.settings.PromoteEps, "promote-eps", 0, "promotion slack of the fidelity ladder relative to the front's objective ranges (0 = default; needs -fidelity)")
	return ef
}

// Build resolves the flags into validated evaluation settings.
func (ef *EvalFlags) Build() (eval.Settings, error) {
	s := ef.settings
	f, err := eval.ParseFidelity(ef.fidelity)
	if err != nil {
		return eval.Settings{}, err
	}
	s.Fidelity = f
	return s, s.Validate()
}

// ExitOnInterrupt prints the standard interruption notice and exits with
// the conventional SIGINT status when the optimizer reported an
// interrupted run; it is a no-op otherwise.
func ExitOnInterrupt(interrupted bool, ctrl *study.Controller) {
	if !interrupted {
		return
	}
	if ctrl.Enabled() && ctrl.Saves() > 0 {
		fmt.Fprintf(os.Stderr, "interrupted: resumable checkpoint saved at %s (use -resume %s)\n", ctrl.Path, ctrl.Path)
	} else if ctrl.Enabled() {
		fmt.Fprintln(os.Stderr, "interrupted before the first checkpoint boundary: nothing saved")
	} else {
		fmt.Fprintln(os.Stderr, "interrupted: no checkpoint configured, progress discarded")
	}
	os.Exit(130)
}

// IsStop reports whether an error is (or wraps) the cooperative-stop
// sentinel shared by the optimizers and experiment drivers.
func IsStop(err error) bool { return errors.Is(err, study.ErrStop) }
