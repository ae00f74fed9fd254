package aedb

import (
	"math"
	"testing"
	"testing/quick"

	"aedbmls/internal/geom"
	"aedbmls/internal/manet"
	"aedbmls/internal/mobility"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
)

func TestParamsVectorRoundTrip(t *testing.T) {
	check := func(a, b, c, d, e float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(d) || math.IsNaN(e) {
			return true
		}
		p := Params{a, b, c, d, e}
		return FromVector(p.Vector()) == p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromVectorPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromVector with 3 values did not panic")
		}
	}()
	FromVector([]float64{1, 2, 3})
}

func TestDelayInterval(t *testing.T) {
	lo, hi := Params{MinDelay: 0.2, MaxDelay: 1.5}.DelayInterval()
	if lo != 0.2 || hi != 1.5 {
		t.Fatalf("interval = [%v, %v]", lo, hi)
	}
	// Swapped variables still give a valid interval (Table III allows
	// max_delay < min_delay).
	lo, hi = Params{MinDelay: 0.8, MaxDelay: 0.3}.DelayInterval()
	if lo != 0.3 || hi != 0.8 {
		t.Fatalf("swapped interval = [%v, %v]", lo, hi)
	}
}

func TestDomainClampContains(t *testing.T) {
	d := DefaultDomain()
	check := func(a, b, c, e, f float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(e) || math.IsNaN(f) {
			return true
		}
		p := d.Clamp(Params{a, b, c, e, f})
		return d.Contains(p)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Clamp is the identity inside the domain.
	in := Params{0.5, 2, -80, 1, 25}
	if got := d.Clamp(in); got != in {
		t.Fatalf("Clamp changed an in-domain point: %+v", got)
	}
}

func TestDomainsMatchPaperTables(t *testing.T) {
	d := DefaultDomain()
	wantLo := [NumParams]float64{0, 0, -95, 0, 0}
	wantHi := [NumParams]float64{1, 5, -70, 3, 50}
	if d.Lo != wantLo || d.Hi != wantHi {
		t.Fatalf("optimisation domain = %+v, want Table III", d)
	}
	s := SensitivityDomain()
	if s.Hi[IdxMinDelay] != 5 || s.Hi[IdxMarginThreshold] != 16.2 || s.Hi[IdxNeighborsThreshold] != 100 {
		t.Fatalf("sensitivity domain = %+v, want Sect. III-B ranges", s)
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{0.1, 0.5, -80, 1, 10}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if (Params{MinDelay: -1}).Validate() == nil {
		t.Error("negative delay accepted")
	}
	if (Params{MarginDBm: -1}).Validate() == nil {
		t.Error("negative margin accepted")
	}
	if (Params{NeighborsThreshold: -1}).Validate() == nil {
		t.Error("negative neighbors threshold accepted")
	}
}

// buildAEDBNet builds a static-topology network running AEDB on every node
// and retains the protocol instances for white-box inspection.
func buildAEDBNet(t *testing.T, positions []geom.Vec2, params Params, seed uint64, endTime float64) (*manet.Network, []*Protocol) {
	t.Helper()
	cfg := manet.DefaultScenario(len(positions))
	cfg.WarmupTime = 0
	cfg.EndTime = endTime
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &mobility.Static{P: positions[id]}
	}
	protos := make([]*Protocol, len(positions))
	net, err := manet.New(cfg, seed, func(n *manet.Node) manet.Protocol {
		p := &Protocol{P: params}
		protos[n.ID] = p
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, protos
}

// rxAt returns the received power of a default-power transmission over d
// meters under the default scenario radio model.
func rxAt(d float64) float64 {
	return radio.DefaultTxPowerDBm - radio.NewLogDistanceDefault().Loss(d)
}

// expectedAdaptedPower reproduces AEDB's power estimate for a target whose
// beacon arrived at beaconRx.
func expectedAdaptedPower(beaconRx, margin float64) float64 {
	return radio.TxPowerToReach(radio.DefaultTxPowerDBm, beaconRx, radio.DefaultSensitivityDBm) + margin
}

func TestSourceTransmitsAtDefaultPower(t *testing.T) {
	params := Params{MinDelay: 0.1, MaxDelay: 0.1, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, _ := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 400, Y: 0}}, params, 1, 4)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.SourceSends != 1 {
		t.Fatalf("source sends = %d", st.SourceSends)
	}
	if math.Abs(st.TxPowerSumDBm-radio.DefaultTxPowerDBm) > 1e-9 {
		t.Fatalf("source power = %v, want default %v", st.TxPowerSumDBm, radio.DefaultTxPowerDBm)
	}
}

func TestCloseNodeDropsImmediately(t *testing.T) {
	// 30 m -> rx approx -75 dBm, stronger than the -80 border: line 4-5 of
	// the pseudocode drops the message without forwarding.
	params := Params{MinDelay: 0.05, MaxDelay: 0.05, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, protos := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 30, Y: 0}}, params, 2, 4)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.Coverage() != 1 {
		t.Fatalf("coverage = %d, want 1 (message received, just not forwarded)", st.Coverage())
	}
	if st.Forwards != 0 {
		t.Fatalf("forwards = %d, want 0", st.Forwards)
	}
	if protos[1].Drops != 1 {
		t.Fatalf("drops = %d, want 1", protos[1].Drops)
	}
}

func TestBorderNodeForwardsAfterDelay(t *testing.T) {
	// 100 m -> rx approx -90.6 dBm, inside the forwarding area.
	params := Params{MinDelay: 0.2, MaxDelay: 0.2, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, protos := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, params, 3, 4)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.Forwards != 1 || protos[1].Forwards != 1 {
		t.Fatalf("forwards = %d (proto %d), want 1", st.Forwards, protos[1].Forwards)
	}
}

func TestStrongDuplicateCancelsForwarding(t *testing.T) {
	params := Params{MinDelay: 0.5, MaxDelay: 0.5, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, protos := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, params, 4, 4)
	st := net.StartBroadcast(0, 2)
	// While node 1 waits, inject a strong duplicate (as if a nearby node
	// re-broadcast): pbest rises above the border and the timer drops.
	msg := &manet.Message{ID: st.MessageID, Origin: 0}
	net.Sim.RunUntil(2.2)
	protos[1].OnData(msg, 99, -70)
	net.Run()
	if st.Forwards != 0 {
		t.Fatalf("forwards = %d, want 0 (cancelled by strong duplicate)", st.Forwards)
	}
	if protos[1].Drops != 1 {
		t.Fatalf("drops = %d, want 1", protos[1].Drops)
	}
}

func TestWeakDuplicateDoesNotCancel(t *testing.T) {
	params := Params{MinDelay: 0.5, MaxDelay: 0.5, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, protos := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, params, 5, 4)
	st := net.StartBroadcast(0, 2)
	msg := &manet.Message{ID: st.MessageID, Origin: 0}
	net.Sim.RunUntil(2.2)
	protos[1].OnData(msg, 99, -92)
	net.Run()
	if st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1 (weak duplicate must not cancel)", st.Forwards)
	}
}

// denseSparseTopology: source S, forwarder F 120 m away, plus two
// neighbors of F that are out of S's radio range:
// N1 at 55 m from F (strong beacon), N2 at 110 m (weak beacon).
// All three of S, N1, N2 lie inside F's forwarding area for border -80.
func denseSparseTopology() []geom.Vec2 {
	return []geom.Vec2{
		{X: 0, Y: 0},     // S
		{X: 120, Y: 0},   // F
		{X: 175, Y: 0},   // N1: 55 m from F, 175 m from S (out of S's range)
		{X: 120, Y: 110}, // N2: 110 m from F, 162.8 m from S (out of range)
	}
}

func TestDenseRegimeTargetsClosestPotentialForwarder(t *testing.T) {
	// 3 potential forwarders > threshold 2: dense regime. The target is
	// the forwarding-area neighbor with the strongest beacon (N1).
	params := Params{MinDelay: 0.1, MaxDelay: 0.1, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 2}
	net, _ := buildAEDBNet(t, denseSparseTopology(), params, 6, 2.15)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", st.Forwards)
	}
	want := expectedAdaptedPower(rxAt(55), params.MarginDBm)
	got := st.TxPowerSumDBm - radio.DefaultTxPowerDBm
	if math.Abs(got-want) > 0.2 {
		t.Fatalf("dense adapted power = %.2f dBm, want approx %.2f (reach N1 at 55 m)", got, want)
	}
}

func TestSparseRegimeTargetsFurthestNeighborExcludingSender(t *testing.T) {
	// Same topology, threshold 10: 3 potential forwarders <= 10, sparse
	// regime. The sender S is discarded; the furthest remaining neighbor
	// is N2 at 110 m.
	params := Params{MinDelay: 0.1, MaxDelay: 0.1, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, _ := buildAEDBNet(t, denseSparseTopology(), params, 7, 2.15)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", st.Forwards)
	}
	want := expectedAdaptedPower(rxAt(110), params.MarginDBm)
	got := st.TxPowerSumDBm - radio.DefaultTxPowerDBm
	if math.Abs(got-want) > 0.2 {
		t.Fatalf("sparse adapted power = %.2f dBm, want approx %.2f (reach N2 at 110 m)", got, want)
	}
	// Sanity: the sparse power must exceed the dense one (110 m > 55 m).
	dense := expectedAdaptedPower(rxAt(55), params.MarginDBm)
	if want <= dense {
		t.Fatalf("test geometry broken: sparse %v <= dense %v", want, dense)
	}
}

func TestMarginIncreasesPower(t *testing.T) {
	base := Params{MinDelay: 0.1, MaxDelay: 0.1, BorderThresholdDBm: -80, MarginDBm: 0, NeighborsThreshold: 10}
	withMargin := base
	withMargin.MarginDBm = 3

	power := func(p Params, seed uint64) float64 {
		net, _ := buildAEDBNet(t, denseSparseTopology(), p, seed, 2.15)
		st := net.StartBroadcast(0, 2)
		net.Run()
		return st.TxPowerSumDBm - radio.DefaultTxPowerDBm
	}
	p0 := power(base, 8)
	p3 := power(withMargin, 8)
	if math.Abs((p3-p0)-3) > 0.2 {
		t.Fatalf("margin effect = %.2f dB, want approx 3", p3-p0)
	}
}

func TestEmptyNeighborTableFallsBackToDefaultPower(t *testing.T) {
	// Broadcast fires at t=0, before any beacon: the forwarder knows no
	// neighbors and transmits at the default power.
	params := Params{MinDelay: 0.001, MaxDelay: 0.001, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, _ := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, params, 9, 0.05)
	st := net.StartBroadcast(0, 0)
	net.Run()
	if st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", st.Forwards)
	}
	got := st.TxPowerSumDBm - radio.DefaultTxPowerDBm
	if math.Abs(got-radio.DefaultTxPowerDBm) > 1e-9 {
		t.Fatalf("fallback power = %v, want default", got)
	}
}

func TestAdaptedPowerNeverExceedsDefault(t *testing.T) {
	// Even with a huge margin the power is clamped at the radio maximum.
	params := Params{MinDelay: 0.1, MaxDelay: 0.1, BorderThresholdDBm: -80, MarginDBm: 16.2, NeighborsThreshold: 0}
	net, _ := buildAEDBNet(t, denseSparseTopology(), params, 10, 2.15)
	st := net.StartBroadcast(0, 2)
	net.Run()
	if st.Forwards < 1 {
		t.Fatalf("forwards = %d", st.Forwards)
	}
	perForward := st.TxPowerSumDBm - radio.DefaultTxPowerDBm
	if perForward > radio.DefaultTxPowerDBm+1e-9 {
		t.Fatalf("adapted power %v exceeds the default", perForward)
	}
}

func TestDelayIntervalRespected(t *testing.T) {
	params := Params{MinDelay: 0.3, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	net, _ := buildAEDBNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, params, 11, 4)
	st := net.StartBroadcast(0, 2)
	net.Run()
	// Node 2 receives via node 1's forward, which happens 0.3 s after
	// node 1's reception.
	bt := st.BroadcastTime()
	if bt < 0.3 || bt > 0.35 {
		t.Fatalf("broadcast time = %v, want within [0.3, 0.35]", bt)
	}
}

func TestFloodingForwardsOnce(t *testing.T) {
	cfg := manet.DefaultScenario(3)
	cfg.WarmupTime = 0
	cfg.EndTime = 6
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &mobility.Static{P: positions[id]}
	}
	net, err := manet.New(cfg, 12, NewFlooding(0.05, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	st := net.StartBroadcast(0, 1)
	net.Run()
	if st.Coverage() != 2 {
		t.Fatalf("coverage = %d, want 2", st.Coverage())
	}
	// Both non-source nodes forward exactly once, at full power.
	if st.Forwards != 2 {
		t.Fatalf("forwards = %d, want 2", st.Forwards)
	}
	want := 3 * radio.DefaultTxPowerDBm
	if math.Abs(st.TxPowerSumDBm-want) > 1e-9 {
		t.Fatalf("flooding energy = %v, want %v (all at default power)", st.TxPowerSumDBm, want)
	}
}

func TestDistanceBroadcastGatesOnBorderButKeepsFullPower(t *testing.T) {
	cfg := manet.DefaultScenario(3)
	cfg.WarmupTime = 0
	cfg.EndTime = 6
	// Node 1 too close (30 m: -75 dBm > -80), node 2 at 100 m forwards.
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 100, Y: 0}}
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &mobility.Static{P: positions[id]}
	}
	net, err := manet.New(cfg, 13, NewDistanceBroadcast(0.05, 0.1, -80))
	if err != nil {
		t.Fatal(err)
	}
	st := net.StartBroadcast(0, 1)
	net.Run()
	if st.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1 (only the border node)", st.Forwards)
	}
	want := 2 * radio.DefaultTxPowerDBm
	if math.Abs(st.TxPowerSumDBm-want) > 1e-9 {
		t.Fatalf("distance-broadcast energy = %v, want %v (no power adaptation)", st.TxPowerSumDBm, want)
	}
}

func TestAEDBSavesEnergyVersusFlooding(t *testing.T) {
	// On a realistic mobile network, AEDB must spend less energy and fewer
	// forwardings than blind flooding — the protocol's raison d'etre.
	cfg := manet.DefaultScenario(25)
	run := func(factory func(*manet.Node) manet.Protocol) (float64, int) {
		net, err := manet.New(cfg, 99, factory)
		if err != nil {
			t.Fatal(err)
		}
		st := net.StartBroadcast(0, cfg.WarmupTime)
		net.Run()
		return st.TxEnergyMJ, st.Forwards
	}
	params := Params{MinDelay: 0.05, MaxDelay: 0.3, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}
	aedbMJ, aedbFwd := run(New(params))
	floodMJ, floodFwd := run(NewFlooding(0.05, 0.3))
	if aedbFwd >= floodFwd {
		t.Fatalf("AEDB forwards %d >= flooding %d", aedbFwd, floodFwd)
	}
	if aedbMJ >= floodMJ {
		t.Fatalf("AEDB energy %.4f mJ >= flooding %.4f mJ", aedbMJ, floodMJ)
	}
}
