package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// abSeed is the seed of every A/B run. It has committed digests, so both
// sides' deterministic results are checked against them, and it is not
// the held-out seed 2.
const abSeed = 1

// runAB runs paired runs of one workload on two builds of the benchmark:
// the base binary (--ab-base) and this one, both on abSeed, alternating
// which side goes first. For a deterministic workload every instance both
// sides ran must give the same result digest, so a change that alters
// results cannot pass as a speed-up. It prints each side's median and
// quartiles per end-to-end metric, how many pairs this side won, and
// whether the difference meets the gain rule: this side wins at least 9
// of 10 pairs (ties count for neither) and the medians differ by more than
// the base side's interquartile spread.
func runAB(o options, stdout, stderr io.Writer) int {
	head, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "aedb-bench: A/B needs one workload, got %q\n", o.workload)
		return 2
	}
	sides := []string{o.abBase, head}
	names := []string{"base", "head"}
	values := [2]map[string][]float64{{}, {}}
	for i := 0; i < o.pairs; i++ {
		var digests [2]map[int]string
		for j := 0; j < 2; j++ {
			side := (i + j) % 2
			m, ds, err := abSide(sides[side], names[side], o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "aedb-bench: pair %d, %s: %v\n", i, names[side], err)
				return 1
			}
			for k, v := range m {
				values[side][k] = append(values[side][k], v)
			}
			digests[side] = ds
		}
		if !w.deterministic {
			continue
		}
		for k, d := range digests[0] {
			if h, ok := digests[1][k]; ok && h != d {
				fmt.Fprintf(stderr, "aedb-bench: pair %d, instance %d: head digest %s differs from base %s; the sides compute different results\n", i, k, h, d)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "# A/B %s: %d pairs, seed %d, %gs per run\n", o.workload, o.pairs, abSeed, o.seconds)
	fmt.Fprintf(stdout, "# %-12s %12s %12s %12s   %12s %12s %12s   %5s %s\n",
		"metric", "base", "q1", "q3", "head", "q1", "q3", "wins", "verdict")
	for _, m := range endToEnd {
		b, h := values[0][m.name], values[1][m.name]
		qb, qh := quartiles(b), quartiles(h)
		wins, losses := 0, 0
		for i := range b {
			d := h[i] - b[i]
			if m.higher {
				d = -d
			}
			switch {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
		gap, spread := math.Abs(qh[1]-qb[1]), qb[2]-qb[0]
		verdict := "unresolved"
		switch {
		case 10*wins >= 9*len(b) && gap > spread:
			verdict = "gain"
		case 10*losses >= 9*len(b) && gap > spread:
			verdict = "loss"
		}
		fmt.Fprintf(stdout, "  %-12s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %2d/%-2d %s\n",
			m.name, qb[1], qb[0], qb[2], qh[1], qh[0], qh[2], wins, len(b), verdict)
	}
	return 0
}

// abSide runs one side's benchmark and returns its end-to-end medians and
// the result digest of every instance it ran.
func abSide(bin, name string, o options, stderr io.Writer) (map[string]float64, map[int]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out := filepath.Join(o.workdir, "ab-"+name+".json")
	cmd := exec.CommandContext(ctx, bin, "--workload", o.workload, "--seed", strconv.Itoa(abSeed),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "--scale", o.scale,
		"--workdir", o.workdir, "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, err
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("correctness checks failed")
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return nil, nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, nil, fmt.Errorf("results file: %v", err)
	}
	ds := map[int]string{}
	for _, wr := range rf.Workloads {
		for _, r := range wr.Raw {
			ds[r.Instance] = r.Digest
		}
	}
	return m, ds, nil
}
