// Command aedb-sim simulates a single AEDB broadcast on one random-walk
// network and prints the dissemination trace and the four paper metrics.
//
// Usage:
//
//	aedb-sim [-density 100] [-seed 1] [-min-delay 0.1] [-max-delay 0.5]
//	         [-border -80] [-margin 1] [-neighbors 10] [-protocol aedb]
//	         [-trace run.aedbtr]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"aedbmls/internal/aedb"
	"aedbmls/internal/cliutil"
	"aedbmls/internal/eval"
	"aedbmls/internal/manet"
	dectrace "aedbmls/internal/trace"
)

func main() {
	cliutil.SetUsage("aedb-sim",
		"Simulate one AEDB (or baseline) broadcast on a Table II network and print\n"+
			"the dissemination trace plus the four paper metrics (the E1 substrate).\n"+
			"Output is bit-reproducible per seed.")
	density := flag.Int("density", 100, "network density in devices/km^2 (100/200/300 in the paper)")
	seed := flag.Uint64("seed", 1, "network seed")
	minDelay := flag.Float64("min-delay", 0.1, "AEDB minimum delay (s)")
	maxDelay := flag.Float64("max-delay", 0.5, "AEDB maximum delay (s)")
	border := flag.Float64("border", -80, "AEDB border threshold (dBm)")
	margin := flag.Float64("margin", 1, "AEDB margin threshold (dBm)")
	neighbors := flag.Float64("neighbors", 10, "AEDB neighbors threshold (devices)")
	protocol := flag.String("protocol", "aedb", "protocol: aedb, flooding or distance")
	traceFile := flag.String("trace", "", "record every forwarding decision to this binary trace file (inspect with aedb-trace)")
	flag.Parse()

	nodes, ok := eval.DensityNodes[*density]
	if !ok {
		nodes = manet.NodesForDensity(manet.DefaultScenario(1).Area, float64(*density))
	}
	cfg := manet.DefaultScenario(nodes)

	params := aedb.Params{
		MinDelay: *minDelay, MaxDelay: *maxDelay,
		BorderThresholdDBm: *border, MarginDBm: *margin, NeighborsThreshold: *neighbors,
	}
	var factory func(*manet.Node) manet.Protocol
	switch *protocol {
	case "aedb":
		factory = aedb.New(params)
	case "flooding":
		factory = aedb.NewFlooding(*minDelay, *maxDelay)
	case "distance":
		factory = aedb.NewDistanceBroadcast(*minDelay, *maxDelay, *border)
	default:
		log.Fatalf("unknown protocol %q", *protocol)
	}

	type traceEvent struct {
		t    float64
		kind string
		node int
		info string
	}
	var trace []traceEvent
	cfg.OnDataTx = func(node, msgID int, power, t float64) {
		trace = append(trace, traceEvent{t, "TX", node, fmt.Sprintf("at %6.2f dBm", power)})
	}
	cfg.OnDataLost = func(node, from, msgID int, t float64) {
		trace = append(trace, traceEvent{t, "LOST", node, fmt.Sprintf("frame from node %d (collision)", from)})
	}
	var collector dectrace.Collector
	if *traceFile != "" {
		cfg.OnDecision = collector.Record
	}

	net, err := manet.New(cfg, *seed, factory)
	if err != nil {
		log.Fatal(err)
	}
	st := net.StartBroadcast(0, cfg.WarmupTime)
	net.Run()

	fmt.Printf("protocol=%s density=%d nodes=%d seed=%d radio-range=%.1fm\n",
		*protocol, *density, nodes, *seed, net.MaxRange())
	fmt.Printf("params: %+v\n\n", params)

	st.EachFirstRx(func(id int, t float64) {
		trace = append(trace, traceEvent{t, "RX", id, "first copy"})
	})
	// Ties in t are real (a TX and the RX it causes share a timestamp, and
	// collisions produce same-instant LOST events); a non-stable sort keyed
	// only on t printed them in an unspecified order, so identical runs
	// could differ textually. Stable sort plus a full (t, kind, node) key
	// makes the trace a pure function of the simulation.
	sort.SliceStable(trace, func(i, j int) bool {
		a, b := trace[i], trace[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.node < b.node
	})
	fmt.Printf("dissemination trace (t=0 at broadcast start):\n")
	for _, ev := range trace {
		fmt.Printf("  +%7.3fs  node %-3d %-4s %s\n", ev.t-st.SentAt, ev.node, ev.kind, ev.info)
	}
	fmt.Printf("\ncoverage:       %d / %d devices\n", st.Coverage(), nodes-1)
	fmt.Printf("forwardings:    %d\n", st.Forwards)
	fmt.Printf("energy:         %.2f (sum of forwarding powers, dBm) / %.4f mJ radiated\n",
		st.TxPowerSumDBm, st.TxEnergyMJ)
	fmt.Printf("broadcast time: %.3f s (constraint: < %.1f s)\n", st.BroadcastTime(), eval.BroadcastTimeLimit)
	fmt.Printf("collisions:     %d data frames lost\n", net.Collisions)
	if st.BroadcastTime() >= eval.BroadcastTimeLimit {
		fmt.Fprintln(os.Stderr, "note: this configuration violates the broadcast-time constraint")
	}

	if *traceFile != "" {
		tr := &dectrace.Trace{
			Header: dectrace.Header{
				Protocol: *protocol,
				Density:  *density,
				NumNodes: nodes,
				Seed:     *seed,
				Source:   0,
				Baseline: dectrace.Summary{
					EnergyDBmSum:  st.TxPowerSumDBm,
					Coverage:      float64(st.Coverage()),
					Forwardings:   float64(st.Forwards),
					BroadcastTime: st.BroadcastTime(),
					EnergyMJ:      st.TxEnergyMJ,
					Collisions:    float64(net.Collisions),
				},
			},
			Decisions: collector.Decisions,
		}
		copy(tr.Params[:], params.Vector())
		if err := tr.WriteFile(*traceFile); err != nil {
			log.Fatal(err)
		}
		// Deliberately no filename here: stdout stays bit-identical across
		// runs that only differ in where the trace lands.
		fmt.Printf("decision trace: %d records\n", len(tr.Decisions))
	}
}
