package study_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/spea2"
	"aedbmls/internal/study"
)

const streamGolden = "testdata/checkpoint_streams.json"

// stream is what one checkpointed study leaves behind: the checksum of
// every checkpoint its controller saved (the Final one last), the save
// count, and the result's front bits and counters.
type stream struct {
	Checksums   []string `json:"checksums"`
	Saves       int64    `json:"saves"`
	FrontSize   int      `json:"front_size"`
	Front       string   `json:"front"`
	Evaluations int64    `json:"evaluations"`
	Iterations  int64    `json:"iterations"`
}

// streamAlgorithms runs each optimizer once under ctrl.
var streamAlgorithms = []struct {
	name  string
	every int64
	run   func(p moo.Problem, ctrl *study.Controller) (*study.Result, error)
}{
	{"nsga2", 40, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		cfg := nsga2.TestConfig()
		cfg.Seed = 11
		cfg.Checkpoint = ctrl
		return nsga2.Optimize(p, cfg)
	}},
	{"spea2", 60, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		cfg := spea2.TestConfig()
		cfg.Seed = 12
		cfg.Checkpoint = ctrl
		return spea2.Optimize(p, cfg)
	}},
	{"cellde", 40, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		cfg := cellde.TestConfig()
		cfg.Seed = 13
		cfg.Checkpoint = ctrl
		return cellde.Optimize(p, cfg)
	}},
	{"cellde-memetic", 40, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		cfg := cellde.Memetic(cellde.TestConfig(), 2, 0.2, nil)
		cfg.LocalSearchBatch = 2
		cfg.Seed = 14
		cfg.Checkpoint = ctrl
		return cellde.Optimize(p, cfg)
	}},
	{"mls-n0", 20, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		return runMLS(p, ctrl, 0, 15)
	}},
	{"mls-n3", 20, func(p moo.Problem, ctrl *study.Controller) (*study.Result, error) {
		return runMLS(p, ctrl, 3, 16)
	}},
}

func runMLS(p moo.Problem, ctrl *study.Controller, hood int, seed uint64) (*study.Result, error) {
	cfg := core.TestConfig()
	cfg.NeighborhoodSize = hood
	cfg.Seed = seed
	cfg.Checkpoint = ctrl
	res, err := core.OptimizeSequential(p, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// frontDigest hashes the exact bits of a front's decision vectors,
// objectives and violations, in order.
func frontDigest(front []*moo.Solution) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range front {
		for _, v := range s.X {
			put(v)
		}
		for _, v := range s.F {
			put(v)
		}
		put(s.Violation)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCheckpointStreams pins every checkpoint each optimizer writes: the
// checksum of each save (cadence and Final) and the final front and
// counters, for NSGA-II, SPEA2, CellDE, memetic CellDE and round-robin
// AEDB-MLS at two neighborhood sizes, on an unconstrained and a
// constrained problem. A change to where or what an optimizer
// checkpoints shows up here as a changed checksum. -update rewrites
// testdata/checkpoint_streams.json.
func TestCheckpointStreams(t *testing.T) {
	problems := []struct {
		name string
		p    moo.Problem
	}{
		{"zdt1", benchproblems.ZDT1(6)},
		{"cschaffer", benchproblems.ConstrainedSchaffer()},
	}
	got := map[string]stream{}
	for _, alg := range streamAlgorithms {
		for _, pr := range problems {
			var sums []string
			ctrl := &study.Controller{
				Path:  filepath.Join(t.TempDir(), "s.ckpt"),
				Every: alg.every,
				AfterSave: func(cp *study.Checkpoint) error {
					sums = append(sums, cp.Checksum)
					return nil
				},
			}
			res, err := alg.run(pr.p, ctrl)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.name, pr.name, err)
			}
			got[alg.name+"/"+pr.name] = stream{
				Checksums:   sums,
				Saves:       ctrl.Saves(),
				FrontSize:   len(res.Front),
				Front:       frontDigest(res.Front),
				Evaluations: res.Evaluations,
				Iterations:  res.Iterations,
			}
		}
	}

	got["nsga2-resume60/zdt1"] = resumedStream(t, benchproblems.ZDT1(6))

	if flag.Lookup("update").Value.(flag.Getter).Get().(bool) {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]stream
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not run", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: checkpoint stream changed\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d studies, golden holds %d", len(got), len(want))
	}
}

// resumedStream interrupts an NSGA-II run (Every 60) at its 60-evaluation
// save, resumes it, and requires the resumed run to save exactly what the
// uninterrupted run saves after that point: no second copy of the
// checkpoint it resumed from. It returns the resumed run's stream.
func resumedStream(t *testing.T, p moo.Problem) stream {
	t.Helper()
	const every, at = 60, 60
	run := func(ctrl *study.Controller, resume *study.Checkpoint) (*study.Result, []string) {
		var sums []string
		after := ctrl.AfterSave
		ctrl.AfterSave = func(cp *study.Checkpoint) error {
			sums = append(sums, cp.Checksum)
			if after != nil {
				return after(cp)
			}
			return nil
		}
		cfg := nsga2.TestConfig()
		cfg.Seed = 11
		cfg.Checkpoint = ctrl
		cfg.Resume = resume
		res, err := nsga2.Optimize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, sums
	}
	_, whole := run(&study.Controller{Path: filepath.Join(t.TempDir(), "whole.ckpt"), Every: every}, nil)

	path := filepath.Join(t.TempDir(), "r.ckpt")
	_, first := run(&study.Controller{Path: path, Every: every, AfterSave: func(cp *study.Checkpoint) error {
		if cp.Evaluations == at {
			return study.ErrStop
		}
		return nil
	}}, nil)
	cp, err := study.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Evaluations != at || len(first) != 1 || len(whole) < 2 || whole[0] != first[0] {
		t.Fatalf("interrupted run saved %d checkpoints ending at %d evaluations, want the uninterrupted run's first save at %d",
			len(first), cp.Evaluations, at)
	}
	ctrl := &study.Controller{Path: path, Every: every}
	res, resumed := run(ctrl, cp)
	if !reflect.DeepEqual(resumed, whole[1:]) {
		t.Errorf("resumed run saved\n %v\nwant the uninterrupted run's saves after %d evaluations\n %v", resumed, at, whole[1:])
	}
	return stream{
		Checksums:   resumed,
		Saves:       ctrl.Saves(),
		FrontSize:   len(res.Front),
		Front:       frontDigest(res.Front),
		Evaluations: res.Evaluations,
		Iterations:  res.Iterations,
	}
}
