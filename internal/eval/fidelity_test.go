package eval

import (
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/moo"
)

// TestParseFidelity pins the CLI rung syntax.
func TestParseFidelity(t *testing.T) {
	ok := []struct {
		in   string
		want Fidelity
	}{
		{"", Fidelity{}},
		{"0", Fidelity{}},
		{"off", Fidelity{}},
		{" off ", Fidelity{}},
		{"3", Fidelity{Committee: 3}},
		{"3:0.5", Fidelity{Committee: 3, Horizon: 0.5}},
		{"1:1", Fidelity{Committee: 1, Horizon: 1}},
	}
	for _, c := range ok {
		got, err := ParseFidelity(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFidelity(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"x", "-1", "3:", "3:0", "3:-0.5", "3:1.5", "3:x", "1:0.5:2"} {
		if f, err := ParseFidelity(bad); err == nil {
			t.Errorf("ParseFidelity(%q) = %+v, want error", bad, f)
		}
	}
	// String round-trips through ParseFidelity.
	for _, f := range []Fidelity{{}, {Committee: 3}, {Committee: 2, Horizon: 0.25}} {
		got, err := ParseFidelity(f.String())
		if err != nil || got != f {
			t.Errorf("round-trip %+v -> %q -> %+v, %v", f, f.String(), got, err)
		}
	}
}

// TestLadderGate unit-tests the reference front and its epsilon gate on
// synthetic points: empty front promotes everything, dominated points
// are triaged only past the margin, feasibility slack follows epsViol.
func TestLadderGate(t *testing.T) {
	const eps = 0.1
	epsViol := eps * BroadcastTimeLimit
	var l ladderState
	if l.triaged([]float64{1, 1, 1}, 0, eps) {
		t.Fatal("empty front triaged a candidate")
	}

	// Two non-dominated feasible points. At eps = 0.1 the margin of
	// point (10, 10, 10) is 1 per objective (relative to its own
	// magnitude).
	l.observe([]float64{10, 10, 10}, 0)
	l.observe([]float64{30, 5, 30}, 0)
	if len(l.front) != 2 {
		t.Fatalf("front size %d, want 2", len(l.front))
	}
	// Candidate worse than (10,10,10) by exactly the margin:
	// q.f[k] + eps|q.f[k]| <= f[k] holds, triaged.
	if !l.triaged([]float64{11, 11, 11}, 0, eps) {
		t.Fatal("candidate worse by the full margin in every objective not triaged")
	}
	// Within the margin in one objective: promoted.
	if l.triaged([]float64{10.5, 11, 11}, 0, eps) {
		t.Fatal("candidate within epsilon of the front triaged")
	}
	// Non-dominated candidate (better somewhere): promoted.
	if l.triaged([]float64{5, 50, 50}, 0, eps) {
		t.Fatal("non-dominated candidate triaged")
	}
	// Negative objectives (the committee's -coverage) keep the margin
	// direction: q.f[k] = -20 with eps = 0.1 gives margin 2.
	var neg ladderState
	neg.observe([]float64{-20, -20, -20}, 0)
	if !neg.triaged([]float64{-18, -18, -18}, 0, eps) {
		t.Fatal("candidate worse than a negative front point by the margin not triaged")
	}
	if neg.triaged([]float64{-19, -18, -18}, 0, eps) {
		t.Fatal("candidate within the negative-objective margin triaged")
	}
	// Feasibility slack: a feasible front point triages an infeasible
	// candidate only past eps times the broadcast-time limit.
	if l.triaged([]float64{50, 50, 50}, epsViol/2, eps) {
		t.Fatal("candidate within the violation slack triaged")
	}
	if !l.triaged([]float64{50, 50, 50}, 2*epsViol, eps) {
		t.Fatal("clearly infeasible candidate not triaged by a feasible front")
	}

	// A dominated observation must not grow the front; a dominating one
	// replaces what it dominates.
	l.observe([]float64{11, 11, 11}, 0)
	if len(l.front) != 2 {
		t.Fatalf("dominated observation grew the front to %d", len(l.front))
	}
	l.observe([]float64{-1, -1, -1}, 0)
	if len(l.front) != 1 {
		t.Fatalf("dominating observation left front size %d, want 1", len(l.front))
	}
	// Duplicates are not re-recorded.
	l.observe([]float64{-1, -1, -1}, 0)
	if len(l.front) != 1 {
		t.Fatalf("duplicate observation grew the front to %d", len(l.front))
	}
}

// TestLadderScreensAndPromotes drives the real batch path: a fresh
// ladder-enabled Problem promotes its first batch (empty front), the
// serial Evaluate of a strong configuration seeds the front, and a batch
// repeating a clearly dominated candidate is then screened out while the
// counters account for every rung.
func TestLadderScreensAndPromotes(t *testing.T) {
	good := aedb.Params{MinDelay: 0.1, MaxDelay: 0.6, BorderThresholdDBm: -85, MarginDBm: 2, NeighborsThreshold: 10}.Vector()
	bad := aedb.Params{MinDelay: 0.95, MaxDelay: 4.9, BorderThresholdDBm: -70, MarginDBm: 3, NeighborsThreshold: 49}.Vector()

	p := NewProblem(100, 7, WithCommittee(3),
		WithFidelity(Fidelity{Committee: 1, Horizon: 0.5}))
	if !p.ladderActive() {
		t.Fatal("ladder not active")
	}

	// Empty front: everything promotes, results are full fidelity.
	out := p.EvaluateBatch([][]float64{good, bad})
	for i, r := range out {
		if r.Screened || r.Stopped {
			t.Fatalf("empty-front cell %d not promoted: %+v", i, r)
		}
	}
	h := p.Health()
	if h.ScreenEvals != 2 || h.Promoted != 2 || h.FullEvals != 2 || h.Screened != 0 {
		t.Fatalf("after bootstrap batch: %+v", h)
	}
	if p.FrontSize() == 0 {
		t.Fatal("promoted full evaluations did not seed the front")
	}

	// The serial path also feeds the front.
	before := p.FrontSize()
	if _, _, aux := p.Evaluate(good); aux == nil {
		t.Fatal("serial evaluation failed")
	}
	if p.FrontSize() < before {
		t.Fatalf("serial evaluation shrank the front: %d -> %d", before, p.FrontSize())
	}

	// A utopian front point with zero slack triages every candidate: the
	// screening estimates come back marked, inadmissible, and NO full
	// evaluation is spent on the batch.
	p2 := NewProblem(100, 7, WithCommittee(3),
		WithFidelity(Fidelity{Committee: 1, Horizon: 0.5}))
	p2.ladder.mu.Lock()
	p2.ladder.observe([]float64{-1e9, -1e9, -1e9}, 0)
	p2.ladder.mu.Unlock()
	out = p2.EvaluateBatch([][]float64{good, bad})
	for i, r := range out {
		if !r.Screened || r.Stopped {
			t.Fatalf("utopian front did not screen cell %d: %+v", i, r)
		}
		s := moo.Solution{Stopped: r.Stopped, Screened: r.Screened}
		if s.Admissible() {
			t.Fatal("screened solution reported admissible")
		}
	}
	h2 := p2.Health()
	if h2.ScreenEvals != 2 || h2.Screened != 2 || h2.Promoted != 0 || h2.FullEvals != 0 {
		t.Fatalf("fully triaged batch counters: %+v", h2)
	}

	// A hopeless front point (worst objectives AND massively infeasible —
	// it epsilon-dominates nothing under Deb's rule) promotes everything
	// even though the front is non-empty.
	p3 := NewProblem(100, 7, WithCommittee(3),
		WithFidelity(Fidelity{Committee: 1, Horizon: 0.5}))
	p3.ladder.mu.Lock()
	p3.ladder.observe([]float64{1e9, 1e9, 1e9}, 1e9)
	p3.ladder.mu.Unlock()
	out = p3.EvaluateBatch([][]float64{good, bad})
	for i, r := range out {
		if r.Screened || r.Stopped {
			t.Fatalf("hopeless front screened cell %d: %+v", i, r)
		}
	}
	if h3 := p3.Health(); h3.Promoted != 2 || h3.FullEvals != 2 {
		t.Fatalf("promote-all counters: %+v", h3)
	}
}

// TestLadderReusesFullHorizonScreening: a screening rung at full horizon
// runs the very simulations the full pass would run on the committee
// prefix, so a promoted candidate simulates only scenarios [C, N). The
// scenario site's hit count shows the C saved cells per promoted
// candidate, every promoted result must equal a ladder-free batch's, and
// a truncated rung must still run the whole committee.
func TestLadderReusesFullHorizonScreening(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	// A rule that never fires arms the hit counters.
	if err := faultinject.Configure("site=eval.scenario,kind=error,after=1000000000"); err != nil {
		t.Fatal(err)
	}
	const n, c = 4, 2
	xs := neighborhood(6, 19)
	want := NewProblem(100, 29, WithCommittee(n)).EvaluateBatch(xs)
	for _, tc := range []struct {
		name    string
		horizon float64
		saved   int64
	}{
		{"full-horizon", 0, c},
		{"horizon-1", 1, c},
		{"truncated", 0.5, 0},
	} {
		p := NewProblem(100, 29, WithCommittee(n), WithFidelity(Fidelity{Committee: c, Horizon: tc.horizon}))
		for batch := 0; batch < 2; batch++ {
			before, promotedBefore := faultinject.Hits(faultinject.SiteEvalScenario), p.Health().Promoted
			out := p.EvaluateBatch(xs)
			promoted := p.Health().Promoted - promotedBefore
			if batch == 0 && promoted != int64(len(xs)) {
				t.Fatalf("%s: the bootstrap batch promoted %d of %d", tc.name, promoted, len(xs))
			}
			hits := faultinject.Hits(faultinject.SiteEvalScenario) - before
			if wantHits := int64(len(xs)*c) + promoted*(n-tc.saved); hits != wantHits {
				t.Fatalf("%s batch %d: %d scenario simulations for %d promoted, want %d", tc.name, batch, hits, promoted, wantHits)
			}
			for j, r := range out {
				if r.Screened {
					continue
				}
				if r.Aux.(Metrics) != want[j].Aux.(Metrics) || r.Violation != want[j].Violation {
					t.Fatalf("%s batch %d: promoted vector %d %+v != ladder-free %+v", tc.name, batch, j, r.Aux, want[j].Aux)
				}
			}
		}
	}
}
