package manet

import (
	"math"
	"slices"
	"testing"

	"aedbmls/internal/geom"
	"aedbmls/internal/mobility"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
)

// sendFrame puts a data frame on the medium at the given power, without
// TransmitData's power clamp and broadcast accounting.
func (net *Network) sendFrame(n *Node, msg *Message, dbm float64) {
	d := float64(net.Cfg.DataBytes*8) / net.Cfg.BitRateBps
	net.transmitFrame(n, msg, dbm, d, radio.TxEnergyMilliJoule(dbm, d))
}

// staticConfig builds a small network with pinned node positions and no
// warm-up, for precise behavioural tests.
func staticConfig(positions []geom.Vec2) Config {
	cfg := DefaultScenario(len(positions))
	cfg.WarmupTime = 0
	cfg.EndTime = 10
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &mobility.Static{P: positions[id]}
	}
	return cfg
}

// recorder is a protocol that logs receptions and optionally reacts.
type recorder struct {
	node     *Node
	received []recordedRx
	onData   func(*recorder, *Message, int, float64)
	onTimer  func(*recorder, int32)
}

type recordedRx struct {
	msgID, from int
	power       float64
	t           float64
}

func (r *recorder) Init(n *Node) { r.node = n }
func (r *recorder) Originate(msg *Message) {
	r.node.Network().TransmitData(r.node, msg, r.node.Network().Cfg.DefaultTxPowerDBm)
}
func (r *recorder) OnData(msg *Message, from int, p float64) {
	r.received = append(r.received, recordedRx{msg.ID, from, p, r.node.Network().Sim.Now()})
	if r.onData != nil {
		r.onData(r, msg, from, p)
	}
}
func (r *recorder) OnTimer(tag int32) {
	if r.onTimer != nil {
		r.onTimer(r, tag)
	}
}

func buildRecorderNet(t *testing.T, positions []geom.Vec2, seed uint64) (*Network, []*recorder) {
	t.Helper()
	recs := make([]*recorder, len(positions))
	net, err := New(staticConfig(positions), seed, func(n *Node) Protocol {
		recs[n.ID] = &recorder{}
		return recs[n.ID]
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, recs
}

func TestValidate(t *testing.T) {
	good := DefaultScenario(10)
	if err := good.Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(c *Config)
	}{
		{"zero nodes", func(c *Config) { c.NumNodes = 0 }},
		{"zero path-loss exponent", func(c *Config) { c.PathLoss.Exponent = 0 }},
		{"negative path-loss exponent", func(c *Config) { c.PathLoss.Exponent = -3 }},
		{"zero reference distance", func(c *Config) { c.PathLoss.ReferenceDistance = 0 }},
		{"NaN path-loss exponent", func(c *Config) { c.PathLoss.Exponent = math.NaN() }},
		{"end before warmup", func(c *Config) { c.EndTime = c.WarmupTime - 1 }},
		{"zero beacon interval", func(c *Config) { c.BeaconInterval = 0 }},
		{"zero change interval", func(c *Config) { c.ChangeInterval = 0 }},
		{"negative change interval", func(c *Config) { c.ChangeInterval = -1 }},
		{"NaN beacon interval", func(c *Config) { c.BeaconInterval = math.NaN() }},
		{"NaN end time", func(c *Config) { c.EndTime = math.NaN() }},
		{"infinite end time", func(c *Config) { c.EndTime = math.Inf(1) }},
		{"negative warmup", func(c *Config) { c.WarmupTime = -1 }},
		{"negative min speed", func(c *Config) { c.SpeedMin = -1 }},
		{"inverted speed bounds", func(c *Config) { c.SpeedMin, c.SpeedMax = 3, 2 }},
		{"NaN max speed", func(c *Config) { c.SpeedMax = math.NaN() }},
		{"NaN neighbor timeout", func(c *Config) { c.NeighborTimeout = math.NaN() }},
		{"negative neighbor timeout", func(c *Config) { c.NeighborTimeout = -1 }},
		{"NaN bit rate", func(c *Config) { c.BitRateBps = math.NaN() }},
		{"NaN tx power", func(c *Config) { c.DefaultTxPowerDBm = math.NaN() }},
		{"infinite area", func(c *Config) { c.Area.MaxX = math.Inf(1) }},
		{"negative propagation speed", func(c *Config) { c.PropagationSpeed = -1 }},
	} {
		bad := good
		c.edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A mobility factory owns the trajectories, so the random walk's
	// change interval is not read; 0 propagation speed disables the delay.
	custom := good
	custom.MakeMobility = func(int, *rng.Rand) mobility.Model { return &mobility.Static{} }
	custom.ChangeInterval, custom.PropagationSpeed = 0, 0
	if err := custom.Validate(); err != nil {
		t.Errorf("mobility factory with zero change interval rejected: %v", err)
	}
}

func TestNodesForDensity(t *testing.T) {
	area := geom.Square(500) // 0.25 km^2
	for density, want := range map[float64]int{100: 25, 200: 50, 300: 75} {
		if got := NodesForDensity(area, density); got != want {
			t.Errorf("NodesForDensity(%v) = %d, want %d", density, got, want)
		}
	}
}

func TestBeaconNeighborDiscovery(t *testing.T) {
	// Two nodes 50 m apart (well in range), one 450 m away (out of range).
	net, _ := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 450, Y: 0}}, 1)
	net.Sim.RunUntil(3)
	n0 := net.Nodes[0].Neighbors()
	if len(n0) != 1 || n0[0].ID != 1 {
		t.Fatalf("node 0 neighbors = %+v, want exactly node 1", n0)
	}
	// Received beacon power matches the link budget.
	wantRx := net.Cfg.DefaultTxPowerDBm - net.Cfg.PathLoss.Loss(50)
	if math.Abs(n0[0].RxPowerDBm-wantRx) > 1e-9 {
		t.Fatalf("beacon rx = %v, want %v", n0[0].RxPowerDBm, wantRx)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	net, _ := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 80, Y: 0}}, 2)
	net.Sim.RunUntil(3)
	a := net.Nodes[0].Neighbors()
	b := net.Nodes[1].Neighbors()
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("neighbor counts %d, %d", len(a), len(b))
	}
	if math.Abs(a[0].RxPowerDBm-b[0].RxPowerDBm) > 1e-9 {
		t.Fatalf("static symmetric link has asymmetric powers: %v vs %v", a[0].RxPowerDBm, b[0].RxPowerDBm)
	}
}

func TestNeighborTimeout(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 50, Y: 0}}
	cfg := staticConfig(positions)
	cfg.EndTime = 20
	var net *Network
	net, err := New(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(3)
	if len(net.Nodes[0].Neighbors()) != 1 {
		t.Fatal("neighbor not discovered")
	}
	// Silence node 1 by moving it out of range: swap its mobility via a
	// fresh network is cleaner — instead just stop time-advancing beacons
	// by running past EndTime (beacons stop) and expiring the table.
	net.Sim.RunUntil(20) // last beacons at ~20
	net.Sim.RunUntil(30) // 10 s of silence > NeighborTimeout
	if got := net.Nodes[0].Neighbors(); len(got) != 0 {
		t.Fatalf("stale neighbor survived timeout: %+v", got)
	}
}

func TestBroadcastDeliveryAndStats(t *testing.T) {
	// Chain 0 -- 100m -- 1; node 1 re-broadcasts on reception via the
	// recorder callback, reaching node 2 at 200 m from node 0.
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, 4)
	forwarded := false
	recs[1].onData = func(r *recorder, msg *Message, _ int, _ float64) {
		if !forwarded {
			forwarded = true
			r.node.Network().TransmitData(r.node, msg, r.node.Network().Cfg.DefaultTxPowerDBm)
		}
	}
	st := net.StartBroadcast(0, 1.0)
	net.Run()
	if st.Coverage() != 2 {
		t.Fatalf("coverage = %d, want 2", st.Coverage())
	}
	if st.Forwards != 1 || st.SourceSends != 1 {
		t.Fatalf("forwards = %d sourceSends = %d", st.Forwards, st.SourceSends)
	}
	wantEnergy := 2 * net.Cfg.DefaultTxPowerDBm
	if math.Abs(st.TxPowerSumDBm-wantEnergy) > 1e-9 {
		t.Fatalf("energy sum = %v, want %v", st.TxPowerSumDBm, wantEnergy)
	}
	if bt := st.BroadcastTime(); bt <= 0 || bt > 0.1 {
		t.Fatalf("broadcast time = %v", bt)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 400, Y: 0}}, 5)
	st := net.StartBroadcast(0, 1.0)
	net.Run()
	if len(recs[1].received) != 0 || st.Coverage() != 0 {
		t.Fatalf("out-of-range node received the message")
	}
	if st.BroadcastTime() != 0 {
		t.Fatalf("broadcast time with no receivers = %v, want 0", st.BroadcastTime())
	}
}

func TestReducedPowerShrinksRange(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}
	cfg := staticConfig(positions)
	cfg.FastBeacons = true
	recs := make([]*recorder, 2)
	net, err := New(cfg, 6, func(n *Node) Protocol {
		recs[n.ID] = &recorder{}
		return recs[n.ID]
	})
	if err != nil {
		t.Fatal(err)
	}
	// At -10 dBm the range is ~19 m: the 100 m neighbor must not hear it.
	msg := net.NewMessage(0)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[0], msg, -10)
	net.Run()
	if len(recs[1].received) != 0 {
		t.Fatal("reduced-power frame delivered beyond its range")
	}
}

func TestCollisionBetweenSimultaneousFrames(t *testing.T) {
	// Nodes 1 and 2 transmit simultaneously; node 0 sits between them at
	// equal distance, so neither frame captures and both are lost.
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 100, Y: 0}, {X: 0, Y: 0}, {X: 200, Y: 0}}, 7)
	m1 := net.NewMessage(1)
	m2 := net.NewMessage(2)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[1], m1, net.Cfg.DefaultTxPowerDBm)
	net.sendFrame(net.Nodes[2], m2, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	if len(recs[0].received) != 0 {
		t.Fatalf("equal-power overlapping frames were delivered: %+v", recs[0].received)
	}
	if net.Nodes[0].LostFrames != 2 {
		t.Fatalf("lost frames = %d, want 2", net.Nodes[0].LostFrames)
	}
}

func TestCaptureStrongFrameSurvives(t *testing.T) {
	// Node 1 is 20 m from the receiver, node 2 is 200 m away: the near
	// frame is >10 dB stronger and must capture the channel.
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 200, Y: 0}}, 8)
	m1 := net.NewMessage(1)
	m2 := net.NewMessage(2)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[1], m1, net.Cfg.DefaultTxPowerDBm)
	net.sendFrame(net.Nodes[2], m2, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	if len(recs[0].received) != 1 || recs[0].received[0].from != 1 {
		t.Fatalf("capture failed: received %+v", recs[0].received)
	}
}

func TestHalfDuplexSenderMissesOverlap(t *testing.T) {
	// Node 0 transmits; node 1's simultaneous frame must be lost at node 0
	// (half duplex) but node 2, in range of node 1 only, still receives it.
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, 9)
	m0 := net.NewMessage(0)
	m1 := net.NewMessage(1)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[0], m0, net.Cfg.DefaultTxPowerDBm)
	net.sendFrame(net.Nodes[1], m1, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	for _, rx := range recs[0].received {
		if rx.msgID == m1.ID {
			t.Fatal("transmitting node received an overlapping frame")
		}
	}
	// Node 2 is 100 m from node 1: node 0's frame does not reach it
	// (200 m), so no collision there.
	if len(recs[2].received) != 1 || recs[2].received[0].msgID != m1.ID {
		t.Fatalf("bystander reception wrong: %+v", recs[2].received)
	}
}

// quietAt runs the network to the first instant from which no pending
// event falls within the next window seconds and returns that instant.
func quietAt(net *Network, window float64) float64 {
	at := net.Sim.Now()
	for _, ev := range net.Sim.SnapshotEvents() {
		if ev.Time > at+window {
			break
		}
		at = ev.Time
	}
	net.Sim.RunUntil(at)
	return at
}

// TestOneEventPerReception: a data frame heard by two receivers costs
// exactly two events, one frame end per reception. No frame-start event
// exists; the send time is picked so that no beacon fires in the window.
func TestOneEventPerReception(t *testing.T) {
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 50}}, 3)
	net.Sim.RunUntil(1)
	quietAt(net, 0.01)
	msg := net.NewMessage(0)
	before := net.Sim.Fired()
	net.sendFrame(net.Nodes[0], msg, net.Cfg.DefaultTxPowerDBm)
	for !net.Quiescent() {
		if !net.Sim.StepUntil(net.Cfg.EndTime) {
			t.Fatal("ran out of events before quiescence")
		}
	}
	if got := net.Sim.Fired() - before; got != 2 {
		t.Fatalf("one frame to two receivers fired %d events, want 2", got)
	}
	if len(recs[1].received) != 1 || len(recs[2].received) != 1 {
		t.Fatalf("receptions: node 1 %+v, node 2 %+v", recs[1].received, recs[2].received)
	}
}

// slowLink builds two static nodes 140 m apart with a propagation speed of
// 2e4 m/s: a frame takes 7 ms to cross, over three airtimes of a data
// frame (2.048 ms).
func slowLink(t *testing.T) (*Network, []*recorder) {
	t.Helper()
	cfg := staticConfig([]geom.Vec2{{X: 0, Y: 0}, {X: 140, Y: 0}})
	cfg.PropagationSpeed = 2e4
	recs := make([]*recorder, 2)
	net, err := New(cfg, 5, func(n *Node) Protocol {
		recs[n.ID] = &recorder{}
		return recs[n.ID]
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, recs
}

func TestHalfDuplexLosesFrameStillPropagating(t *testing.T) {
	// Node 0's frame reaches node 1 at 1.007 s; node 1 starts its own
	// transmission at 1.006 s, so the frame lands during its airtime.
	net, recs := slowLink(t)
	m0 := net.NewMessage(0)
	m1 := net.NewMessage(1)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[0], m0, net.Cfg.DefaultTxPowerDBm)
	net.Sim.RunUntil(1.006)
	net.sendFrame(net.Nodes[1], m1, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	if len(recs[1].received) != 0 || net.Nodes[1].LostFrames != 1 {
		t.Fatalf("node 1 received %+v with %d lost, want the frame lost", recs[1].received, net.Nodes[1].LostFrames)
	}
	// Node 1's frame reaches node 0 at 1.013 s, long after its airtime.
	if len(recs[0].received) != 1 || recs[0].received[0].msgID != m1.ID {
		t.Fatalf("node 0 received %+v, want node 1's frame", recs[0].received)
	}
}

func TestFrameArrivingAfterAirtimeIsReceived(t *testing.T) {
	// Node 1 transmits at 1.001 s while node 0's frame is still on its
	// way (arrival 1.007 s, after node 1's airtime ends at 1.003048 s);
	// node 1's frame reaches node 0 at 1.008 s, after node 0's airtime.
	// Neither half-duplex window covers an arrival, so both are received.
	net, recs := slowLink(t)
	m0 := net.NewMessage(0)
	m1 := net.NewMessage(1)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[0], m0, net.Cfg.DefaultTxPowerDBm)
	net.Sim.RunUntil(1.001)
	net.sendFrame(net.Nodes[1], m1, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	if len(recs[0].received) != 1 || recs[0].received[0].msgID != m1.ID {
		t.Fatalf("node 0 received %+v, want node 1's frame", recs[0].received)
	}
	if len(recs[1].received) != 1 || recs[1].received[0].msgID != m0.ID {
		t.Fatalf("node 1 received %+v, want node 0's frame", recs[1].received)
	}
	if net.Collisions != 0 {
		t.Fatalf("collisions = %d, want 0", net.Collisions)
	}
}

func TestBackToBackFramesDoNotCollide(t *testing.T) {
	// Without propagation delay, node 2's frame reaches node 0 at the very
	// instant node 1's frame ends there. Node 2 transmits from a timer
	// armed before node 1's frame was sent, so it fires ahead of that
	// frame's end at the shared instant. The frames touch but do not
	// overlap: equal-power frames that overlapped would both be lost.
	positions := []geom.Vec2{{X: 100, Y: 0}, {X: 0, Y: 0}, {X: 200, Y: 0}}
	cfg := staticConfig(positions)
	cfg.PropagationSpeed = 0
	recs := make([]*recorder, len(positions))
	net, err := New(cfg, 7, func(n *Node) Protocol {
		recs[n.ID] = &recorder{}
		return recs[n.ID]
	})
	if err != nil {
		t.Fatal(err)
	}
	m1 := net.NewMessage(1)
	m2 := net.NewMessage(2)
	recs[2].onTimer = func(r *recorder, _ int32) {
		net.sendFrame(r.node, m2, cfg.DefaultTxPowerDBm)
	}
	airtime := float64(cfg.DataBytes*8) / cfg.BitRateBps
	net.Sim.RunUntil(1)
	net.Nodes[2].ScheduleTimer(airtime, 0)
	net.sendFrame(net.Nodes[1], m1, cfg.DefaultTxPowerDBm)
	net.Run()
	if len(recs[0].received) != 2 || net.Nodes[0].LostFrames != 0 {
		t.Fatalf("node 0 received %+v with %d lost, want both frames", recs[0].received, net.Nodes[0].LostFrames)
	}
	if first := recs[0].received[0]; first.from != 1 || first.t != 1+airtime {
		t.Fatalf("first reception %+v, want node 1's frame ending at %v", first, 1+airtime)
	}
}

func TestCaptureWeakerFrameArrivesSecondEndsFirst(t *testing.T) {
	// Node 1's data frame is on the air at node 0 when a short frame from
	// node 2 arrives and ends inside it. The capture test is the same
	// whichever frame ends first: the stronger frame survives only with a
	// capture-threshold margin, and the weaker one never does.
	for _, c := range []struct {
		name      string
		positions []geom.Vec2
		wantFrom  []int
		wantLost  int
	}{
		{"strong first frame captures", []geom.Vec2{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: -140, Y: 0}}, []int{1}, 1},
		{"equal powers both lost", []geom.Vec2{{X: 100, Y: 0}, {X: 0, Y: 0}, {X: 200, Y: 0}}, nil, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, recs := buildRecorderNet(t, c.positions, 8)
			m1 := net.NewMessage(1)
			m2 := net.NewMessage(2)
			dbm := net.Cfg.DefaultTxPowerDBm
			airtime := float64(net.Cfg.DataBytes*8) / net.Cfg.BitRateBps
			net.Sim.RunUntil(1)
			net.sendFrame(net.Nodes[1], m1, dbm)
			net.Sim.RunUntil(1 + airtime/4)
			net.transmitFrame(net.Nodes[2], m2, dbm, airtime/4, radio.TxEnergyMilliJoule(dbm, airtime/4))
			net.Run()
			var from []int
			for _, rx := range recs[0].received {
				from = append(from, rx.from)
			}
			if !slices.Equal(from, c.wantFrom) || net.Nodes[0].LostFrames != c.wantLost {
				t.Fatalf("node 0 received from %v with %d lost, want %v with %d lost", from, net.Nodes[0].LostFrames, c.wantFrom, c.wantLost)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, float64, int) {
		cfg := DefaultScenario(25)
		net, err := New(cfg, 12345, func(n *Node) Protocol { return &recorder{} })
		if err != nil {
			t.Fatal(err)
		}
		st := net.StartBroadcast(3, cfg.WarmupTime)
		net.Run()
		return st.Coverage(), st.TxPowerSumDBm, int(net.Sim.Fired())
	}
	c1, e1, f1 := run()
	c2, e2, f2 := run()
	if c1 != c2 || e1 != e2 || f1 != f2 {
		t.Fatalf("same-seed runs diverged: (%d %v %d) vs (%d %v %d)", c1, e1, f1, c2, e2, f2)
	}
}

func TestSeedsDiffer(t *testing.T) {
	cov := func(seed uint64) int {
		cfg := DefaultScenario(25)
		net, err := New(cfg, seed, func(n *Node) Protocol { return &recorder{} })
		if err != nil {
			t.Fatal(err)
		}
		st := net.StartBroadcast(0, cfg.WarmupTime)
		net.Run()
		_ = st
		return int(net.Sim.Fired())
	}
	if cov(1) == cov(2) && cov(3) == cov(4) && cov(5) == cov(6) {
		t.Fatal("different seeds produced identical event counts thrice (suspicious)")
	}
}

func TestAccurateBeaconsDiscoverNeighborsToo(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}}
	cfg := staticConfig(positions)
	cfg.FastBeacons = false
	net, err := New(cfg, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(5)
	// With contention modelling on, the middle node should still have
	// discovered both neighbors after 5 beacon rounds.
	if got := len(net.Nodes[1].Neighbors()); got != 2 {
		t.Fatalf("accurate-beacon neighbor count = %d, want 2", got)
	}
}

func TestFirstRxRecordedOnce(t *testing.T) {
	net, recs := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, 11)
	st := net.StartBroadcast(0, 1.0)
	// Source transmits again later; coverage must not double count.
	net.Sim.RunUntil(2)
	net.TransmitData(net.Nodes[0], &Message{ID: st.MessageID, Origin: 0}, net.Cfg.DefaultTxPowerDBm)
	net.Run()
	if st.Coverage() != 1 {
		t.Fatalf("coverage = %d, want 1", st.Coverage())
	}
	if len(recs[1].received) != 2 {
		t.Fatalf("receptions = %d, want 2 (duplicate still delivered to protocol)", len(recs[1].received))
	}
	first, ok := st.FirstRxAt(1)
	if !ok {
		t.Fatal("node 1 has no recorded first reception")
	}
	if first > 1.1 {
		t.Fatalf("first reception time %v not from the first transmission", first)
	}
}

func TestEnergyAccounting(t *testing.T) {
	net, _ := buildRecorderNet(t, []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}}, 12)
	st := net.StartBroadcast(0, 1.0)
	net.Run()
	duration := float64(net.Cfg.DataBytes*8) / net.Cfg.BitRateBps
	wantMJ := math.Pow(10, net.Cfg.DefaultTxPowerDBm/10) * duration
	if math.Abs(st.TxEnergyMJ-wantMJ) > 1e-9 {
		t.Fatalf("TxEnergyMJ = %v, want %v", st.TxEnergyMJ, wantMJ)
	}
	// Node-level accounting includes beacons, so it must exceed the
	// broadcast-only figure.
	if net.Nodes[0].TxEnergyMJ <= wantMJ {
		t.Fatalf("node energy %v should exceed broadcast energy %v (beacons)", net.Nodes[0].TxEnergyMJ, wantMJ)
	}
}

func TestTraceHooks(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	cfg := staticConfig(positions)
	var txs, rxs, losses int
	var txPowers []float64
	cfg.OnDataTx = func(node, msgID int, power, _ float64) {
		txs++
		txPowers = append(txPowers, power)
	}
	cfg.OnDataRx = func(node, from, msgID int, rxPower, _ float64) { rxs++ }
	cfg.OnDataLost = func(node, from, msgID int, _ float64) { losses++ }

	recs := make([]*recorder, len(positions))
	net, err := New(cfg, 21, func(n *Node) Protocol {
		recs[n.ID] = &recorder{}
		return recs[n.ID]
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 re-broadcasts once on reception, reaching node 2.
	forwarded := false
	recs[1].onData = func(r *recorder, msg *Message, _ int, _ float64) {
		if !forwarded {
			forwarded = true
			net.TransmitData(r.node, msg, cfg.DefaultTxPowerDBm)
		}
	}
	st := net.StartBroadcast(0, 1.0)
	net.Run()

	if txs != st.Forwards+st.SourceSends {
		t.Fatalf("OnDataTx fired %d times, want %d", txs, st.Forwards+st.SourceSends)
	}
	// Receptions: node 1 hears source + (nothing from itself); node 0 and
	// node 2 hear node 1's forward -> 3 successful data receptions.
	if rxs != 3 {
		t.Fatalf("OnDataRx fired %d times, want 3", rxs)
	}
	if losses != 0 {
		t.Fatalf("OnDataLost fired %d times on a collision-free run", losses)
	}
	for _, p := range txPowers {
		if p != cfg.DefaultTxPowerDBm {
			t.Fatalf("traced power %v, want default", p)
		}
	}
}

func TestTraceLostHook(t *testing.T) {
	// Two simultaneous equal-power frames at a middle node collide; the
	// loss hook must fire for both.
	positions := []geom.Vec2{{X: 100, Y: 0}, {X: 0, Y: 0}, {X: 200, Y: 0}}
	cfg := staticConfig(positions)
	losses := 0
	cfg.OnDataLost = func(node, from, msgID int, _ float64) {
		if node != 0 {
			t.Errorf("loss at node %d, want 0", node)
		}
		losses++
	}
	net, err := New(cfg, 22, func(n *Node) Protocol { return &recorder{} })
	if err != nil {
		t.Fatal(err)
	}
	m1 := net.NewMessage(1)
	m2 := net.NewMessage(2)
	net.Sim.RunUntil(1)
	net.sendFrame(net.Nodes[1], m1, cfg.DefaultTxPowerDBm)
	net.sendFrame(net.Nodes[2], m2, cfg.DefaultTxPowerDBm)
	net.Run()
	if losses != 2 {
		t.Fatalf("OnDataLost fired %d times, want 2", losses)
	}
}
