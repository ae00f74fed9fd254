// Command aedb-trace inspects decision traces recorded by
// `aedb-sim -trace` and replays them counterfactually.
//
// Usage:
//
//	aedb-trace dump <file>                     print the header and every decision
//	aedb-trace why <node> <file>               explain one node's forwarding verdict
//	aedb-trace counterfactual -genes g1,..,g5 <file>
//	                                           re-score the recorded scenario under
//	                                           a perturbed gene vector (no mobility
//	                                           re-simulation) and diff the metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/eval"
	"aedbmls/internal/manet"
	"aedbmls/internal/trace"
)

func usage(w io.Writer) {
	fmt.Fprintf(w, `aedb-trace — inspect and counterfactually replay AEDB decision traces

usage:
  aedb-trace dump <file>                            print header and decision stream
  aedb-trace why <node> <file>                      explain one node's forwarding verdict
  aedb-trace counterfactual -genes g1,g2,g3,g4,g5 <file>
                                                    re-score the recorded scenario under a
                                                    perturbed gene vector and diff the metrics
`)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aedb-trace: ")
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "dump":
		if len(os.Args) != 3 {
			log.Fatal("usage: aedb-trace dump <file>")
		}
		dump(mustRead(os.Args[2]))
	case "why":
		if len(os.Args) != 4 {
			log.Fatal("usage: aedb-trace why <node> <file>")
		}
		node, err := strconv.Atoi(os.Args[2])
		if err != nil {
			log.Fatalf("bad node %q: %v", os.Args[2], err)
		}
		why(node, mustRead(os.Args[3]))
	case "counterfactual":
		counterfactual(os.Args[2:])
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		log.Fatalf("unknown verb %q (want dump, why or counterfactual)", os.Args[1])
	}
}

func mustRead(path string) *trace.Trace {
	tr, err := trace.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func header(tr *trace.Trace) {
	fmt.Printf("protocol=%s density=%d nodes=%d seed=%d source=%d\n",
		tr.Protocol, tr.Density, tr.NumNodes, tr.Seed, tr.Source)
	fmt.Printf("params: min-delay=%g max-delay=%g border=%g margin=%g neighbors=%g\n",
		tr.Params[0], tr.Params[1], tr.Params[2], tr.Params[3], tr.Params[4])
	b := tr.Baseline
	fmt.Printf("baseline: energy=%.2f dBm coverage=%.0f forwardings=%.0f time=%.3fs energy=%.4f mJ collisions=%.0f\n",
		b.EnergyDBmSum, b.Coverage, b.Forwardings, b.BroadcastTime, b.EnergyMJ, b.Collisions)
}

// describe renders one decision as a human-readable line (without the
// node column, which the callers format themselves).
func describe(d *manet.Decision) string {
	switch d.Kind {
	case manet.DecisionOriginate:
		return fmt.Sprintf("originates the broadcast at %.2f dBm", d.TxPowerDBm)
	case manet.DecisionDropClose:
		return fmt.Sprintf("drops copy from node %d: rx %.2f dBm above border %.2f dBm (too close to add coverage)",
			d.From, d.RxPowerDBm, d.BorderDBm)
	case manet.DecisionArm:
		return fmt.Sprintf("arms forwarding timer: rx %.2f dBm from node %d, delay %.4fs drawn from [%.4f, %.4f]",
			d.RxPowerDBm, d.From, d.Delay, d.DelayLo, d.DelayHi)
	case manet.DecisionDuplicate:
		return fmt.Sprintf("hears duplicate from node %d at %.2f dBm (best so far %.2f dBm)",
			d.From, d.RxPowerDBm, d.PBestDBm)
	case manet.DecisionCancel:
		return fmt.Sprintf("cancels pending forward: copy from node %d at %.2f dBm proves the area already served (best %.2f dBm, border %.2f dBm)",
			d.From, d.RxPowerDBm, d.PBestDBm, d.BorderDBm)
	case manet.DecisionForward:
		return fmt.Sprintf("forwards at %.2f dBm (%s regime, %d forwarding-area neighbors vs threshold %.1f, link-budget beacon %.2f dBm)",
			d.TxPowerDBm, manet.RegimeName(d.Regime), d.Potential, d.NeighborsThreshold, d.BeaconRxDBm)
	case manet.DecisionExpireDrop:
		return fmt.Sprintf("timer expires with nobody left in the forwarding area (best %.2f dBm): drops silently", d.PBestDBm)
	default:
		return fmt.Sprintf("unknown decision kind %d", d.Kind)
	}
}

func dump(tr *trace.Trace) {
	header(tr)
	fmt.Printf("\n%d decisions:\n", len(tr.Decisions))
	for i := range tr.Decisions {
		d := &tr.Decisions[i]
		fmt.Printf("  +%9.4fs  node %-4d %-11s msg %d: %s\n",
			d.Time, d.Node, d.Kind, d.MsgID, describe(d))
	}
}

func why(node int, tr *trace.Trace) {
	header(tr)
	fmt.Printf("\nnode %d:\n", node)
	var last *manet.Decision
	count := 0
	for i := range tr.Decisions {
		d := &tr.Decisions[i]
		if int(d.Node) != node {
			continue
		}
		count++
		fmt.Printf("  +%9.4fs  %s\n", d.Time, describe(d))
		switch d.Kind {
		case manet.DecisionOriginate, manet.DecisionDropClose, manet.DecisionCancel,
			manet.DecisionForward, manet.DecisionExpireDrop:
			last = d
		}
	}
	if count == 0 {
		fmt.Printf("  (no decisions recorded: the node never received the broadcast)\n")
		fmt.Printf("verdict: never received\n")
		return
	}
	verdict := "received only"
	if last != nil {
		switch last.Kind {
		case manet.DecisionOriginate:
			verdict = "originated the broadcast"
		case manet.DecisionForward:
			verdict = fmt.Sprintf("forwarded at %.2f dBm (%s regime)", last.TxPowerDBm, manet.RegimeName(last.Regime))
		case manet.DecisionCancel:
			verdict = "disqualified while waiting (a louder copy proved the area served)"
		case manet.DecisionDropClose:
			verdict = "dropped immediately (received too close to the sender)"
		case manet.DecisionExpireDrop:
			verdict = "timer expired with an empty forwarding area"
		}
	}
	fmt.Printf("verdict: %s\n", verdict)
}

func counterfactual(args []string) {
	fs := flag.NewFlagSet("aedb-trace counterfactual", flag.ExitOnError)
	genes := fs.String("genes", "", "comma-separated perturbed gene vector: min-delay,max-delay,border,margin,neighbors")
	fs.Parse(args)
	if fs.NArg() != 1 || *genes == "" {
		log.Fatal("usage: aedb-trace counterfactual -genes g1,g2,g3,g4,g5 <file>")
	}
	tr := mustRead(fs.Arg(0))
	if tr.Protocol != "aedb" {
		log.Fatalf("counterfactual replay needs an aedb trace (this one records %q: its genes have no meaning there)", tr.Protocol)
	}
	parts := strings.Split(*genes, ",")
	if len(parts) != aedb.NumParams {
		log.Fatalf("-genes wants %d comma-separated values, got %d", aedb.NumParams, len(parts))
	}
	x := make([]float64, aedb.NumParams)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("bad gene %q: %v", p, err)
		}
		x[i] = v
	}

	header(tr)
	cf, err := eval.NewCounterfactual(manet.DefaultScenario(tr.NumNodes), tr.Seed, tr.Source)
	if err != nil {
		log.Fatal(err)
	}
	recorded := cf.Score(aedb.FromVector(tr.Params[:]))
	perturbed := cf.Score(aedb.FromVector(x))

	marker := "replay of recorded genes is bit-identical to the recorded baseline"
	if !summaryEqual(recorded, tr.Baseline) {
		marker = "WARNING: replay of recorded genes DIVERGES from the recorded baseline (simulator changed since recording?)"
	}
	fmt.Printf("\n%s\n", marker)
	fmt.Printf("\ncounterfactual genes: min-delay=%g max-delay=%g border=%g margin=%g neighbors=%g\n",
		x[0], x[1], x[2], x[3], x[4])
	fmt.Printf("\n%-15s %14s %14s %14s\n", "metric", "recorded", "counterfact.", "delta")
	row := func(name string, a, b float64) {
		fmt.Printf("%-15s %14.4f %14.4f %+14.4f\n", name, a, b, b-a)
	}
	row("energy(dBm sum)", recorded.EnergyDBmSum, perturbed.EnergyDBmSum)
	row("coverage", recorded.Coverage, perturbed.Coverage)
	row("forwardings", recorded.Forwardings, perturbed.Forwardings)
	row("broadcast time", recorded.BroadcastTime, perturbed.BroadcastTime)
	row("energy(mJ)", recorded.EnergyMJ, perturbed.EnergyMJ)
	row("collisions", recorded.Collisions, perturbed.Collisions)
}

// summaryEqual compares a replayed metric vector with the recorded
// baseline bit for bit — the acceptance bar for the replayer.
func summaryEqual(m eval.Metrics, s trace.Summary) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(m.EnergyDBmSum, s.EnergyDBmSum) &&
		eq(m.Coverage, s.Coverage) &&
		eq(m.Forwardings, s.Forwardings) &&
		eq(m.BroadcastTime, s.BroadcastTime) &&
		eq(m.EnergyMJ, s.EnergyMJ) &&
		eq(m.Collisions, s.Collisions)
}
