package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/archive"
	"aedbmls/internal/eval"
	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
	"aedbmls/internal/study"
)

// probe runs the post-run probes of a traced rep, outside the timed
// phase: the manet and sim layers replayed on the workload's committee
// (p) and candidate sample, fresh cold and warm Problems (unless the
// workload measured those itself), and a checkpoint save/load. ckpt is
// the study's final checkpoint; without one the probe checkpoints front.
func (r *rep) probe(p *eval.Problem, opts []eval.Option, front []*moo.Solution, ckpt string) error {
	if err := r.probeManet(p); err != nil {
		return err
	}
	if _, ok := r.res.Layers["eval.cold_problem_ms"]; !ok {
		r.probeProblems(p.Density(), opts)
	}
	return r.probeCheckpoint(front, ckpt)
}

// probeManet times the simulation layers on every committee scenario: the
// 75-node warm-up snapshot and beacon tape the shared caches record, the
// masks they derive for the smaller paper densities, and one
// instantiation plus quiescence run per sampled candidate at the
// workload's own node count.
func (r *rep) probeManet(p *eval.Problem) error {
	id := r.tr.begin("probe.manet", rootSpan)
	defer r.tr.end(id)
	r.tr.setPhase(id)
	cfg := manet.DefaultScenario(eval.DensityNodes[300])
	var warmup, tape, mask, inst, run time.Duration
	var events uint64
	var runs int64
	arena := manet.NewArena()
	for i := 0; i < p.Committee(); i++ {
		sc, err := p.CounterfactualScenario(i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		snap, err := manet.BuildSnapshot(cfg, sc.Seed(), cfg.WarmupTime)
		if err != nil {
			return err
		}
		t1 := time.Now()
		tp, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			return err
		}
		t2 := time.Now()
		for _, d := range []int{100, 200} {
			if _, err := snap.Mask(eval.DensityNodes[d]); err != nil {
				return err
			}
			if _, err := tp.Mask(eval.DensityNodes[d]); err != nil {
				return err
			}
		}
		t3 := time.Now()
		r.tr.span("manet.BuildSnapshot", t0, t1)
		r.tr.span("manet.RecordBeaconTape", t1, t2)
		r.tr.span("manet.Mask", t2, t3)
		warmup += t1.Sub(t0)
		tape += t2.Sub(t1)
		mask += t3.Sub(t2)

		msnap, err := snap.Mask(p.Nodes())
		if err != nil {
			return err
		}
		mtape, err := tp.Mask(p.Nodes())
		if err != nil {
			return err
		}
		for _, x := range r.tr.sample {
			t0 := time.Now()
			net, _ := msnap.InstantiateReplayInto(arena, aedb.New(aedb.FromVector(x)), sc.Source(), cfg.WarmupTime, mtape)
			t1 := time.Now()
			fired := net.Sim.Fired()
			net.RunToQuiescence()
			t2 := time.Now()
			r.tr.span("manet.InstantiateReplayInto", t0, t1)
			r.tr.span("manet.RunToQuiescence", t1, t2)
			inst += t1.Sub(t0)
			run += t2.Sub(t1)
			events += net.Sim.Fired() - fired
			runs++
		}
	}
	scen := int64(p.Committee())
	r.layer("manet.warmup_ms", ms(warmup)/float64(scen), scen)
	r.layer("manet.tape_ms", ms(tape)/float64(scen), scen)
	r.layer("manet.mask_ms", ms(mask)/float64(scen), scen)
	r.layer("manet.instantiate_us", ms(inst)*1e3/float64(runs), runs)
	r.layer("manet.run_us", ms(run)*1e3/float64(runs), runs)
	r.layer("sim.events_per_run", float64(events)/float64(runs), runs)
	r.layer("sim.ns_per_event", float64(run.Nanoseconds())/float64(events), int64(events))
	return nil
}

// probeProblems times one fresh Problem on a committee the process has
// not seen (cold: warm-ups and tapes are built) and a second one on the
// same committee (warm: the shared caches serve them), each evaluating
// a sweep-sized batch of the sample.
func (r *rep) probeProblems(density int, opts []eval.Option) {
	id := r.tr.begin("probe.problems", rootSpan)
	defer r.tr.end(id)
	r.tr.setPhase(id)
	xs := r.tr.sample[:min(len(r.tr.sample), r.sc.sweepCandidates)]
	seed := r.seedFor("probe")
	for _, name := range []string{"eval.cold_problem_ms", "eval.warm_problem_ms"} {
		t0 := time.Now()
		eval.NewProblem(density, seed, opts...).EvaluateBatch(xs)
		t1 := time.Now()
		r.tr.span("eval.NewProblem+EvaluateBatch", t0, t1)
		r.layer(name, ms(t1.Sub(t0)), 1)
	}
}

// probeCheckpoint times study.Load and then study.Save on the study's
// final checkpoint, or, for workloads without one, on a checkpoint of the
// workload's front (as an optimizer CLI's -checkpoint would write it).
func (r *rep) probeCheckpoint(front []*moo.Solution, ckpt string) error {
	id := r.tr.begin("probe.study", rootSpan)
	defer r.tr.end(id)
	r.tr.setPhase(id)
	if ckpt == "" {
		ar := archive.NewUnbounded()
		archive.AddAll(ar, front)
		st, err := study.EncodeArchive(ar)
		if err != nil {
			return err
		}
		ckpt = filepath.Join(r.dir, "front.ckpt")
		if err := study.Save(ckpt, &study.Checkpoint{Algorithm: "bench-probe", Final: true, Evaluations: r.res.Evals, Archive: st}); err != nil {
			return err
		}
	}
	out := filepath.Join(r.dir, "probe.ckpt")
	t0 := time.Now()
	cp, err := study.Load(ckpt)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %v", err)
	}
	t1 := time.Now()
	if err := study.Save(out, cp); err != nil {
		return fmt.Errorf("checkpoint probe: %v", err)
	}
	t2 := time.Now()
	r.tr.span("study.Load", t0, t1)
	r.tr.span("study.Save", t1, t2)
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	r.layer("study.load_ms", ms(t1.Sub(t0)), 1)
	r.layer("study.save_ms", ms(t2.Sub(t1)), 1)
	r.layer("study.ckpt_bytes", float64(fi.Size()), 1)
	return nil
}

// probeArchive times archive insertion for workloads whose archive the
// wrapper cannot reach: each group of feasible evaluated solutions goes,
// in evaluation order, into its own fresh archive.
func (r *rep) probeArchive(fresh func() archive.Interface, groups [][]*moo.Solution) {
	id := r.tr.begin("probe.archive", rootSpan)
	defer r.tr.end(id)
	r.tr.setPhase(id)
	for _, g := range groups {
		ar := r.tr.archive(fresh())
		for _, s := range g {
			if s.Feasible() {
				ar.Add(s)
			}
		}
	}
	r.archiveLayers()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
