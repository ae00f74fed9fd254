package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aedbmls/internal/experiments"
	"aedbmls/internal/report"
)

// argsEnv carries the argv (newline-separated) of a re-executed test
// binary that runs main instead of the tests, so the tests see main's
// real exit status and both of its streams.
const argsEnv = "AEDB_EXPERIMENTS_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append([]string{"aedb-experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its stdout,
// stderr and exit status.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestMainSmoke runs the whole tiny suite: each (density, run) of the
// comparison suite runs once although Fig. 6/7, Table IV, timing and A5
// all read it, and -out writes the bundle and both fronts per density.
func TestMainSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke run is too slow for -short")
	}
	dir := t.TempDir()
	stdout, stderr, code := runMain(t, "-scale", "tiny", "-out", dir)
	if code != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", code, stderr)
	}
	sc := experiments.TinyScale()
	for _, d := range sc.Densities {
		for r := 1; r <= sc.Runs; r++ {
			line := fmt.Sprintf("density %d: run %d/%d done", d, r, sc.Runs)
			if n := strings.Count(stderr, line); n != 1 {
				t.Errorf("%q logged %d times, want once", line, n)
			}
		}
		b, err := report.LoadBundle(filepath.Join(dir, fmt.Sprintf("figure6-%ddev.json", d)))
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Fronts["reference"]) == 0 || len(b.Fronts["aedb-mls"]) == 0 || len(b.Samples) == 0 {
			t.Errorf("density %d bundle lacks fronts or samples", d)
		}
		for _, name := range []string{"reference", "aedb-mls"} {
			if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("front-%ddev-%s.csv", d, name))); err != nil {
				t.Error(err)
			}
		}
	}
	if n := strings.Count(stdout, "Table IV"); n != 1 {
		t.Errorf("Table IV printed %d times, want once", n)
	}
}

// TestInterruptMessage: the resume hint appears only when a checkpoint
// directory holds something to resume from.
func TestInterruptMessage(t *testing.T) {
	if msg := interruptMessage("ckpt"); !strings.Contains(msg, "re-run with the same -checkpoint-dir") {
		t.Errorf("with -checkpoint-dir: %q lacks the resume hint", msg)
	}
	if msg := interruptMessage(""); strings.Contains(msg, "resume") {
		t.Errorf("without -checkpoint-dir: %q promises a resume", msg)
	}
}

func TestMainRefusesUnknownKey(t *testing.T) {
	_, stderr, code := runMain(t, "-scale", "tiny", "-only", "fgi6")
	if code == 0 {
		t.Fatal("unknown -only key exited 0")
	}
	for _, want := range append([]string{"fgi6"}, experiments.Keys()...) {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestRegistryMatchesIndex: the -only keys of cmd/README.md's
// per-experiment index, and of this package's usage comment, are exactly
// the registry's.
func TestRegistryMatchesIndex(t *testing.T) {
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(readme), "## Per-experiment index")
	if !ok {
		t.Fatal("cmd/README.md has no per-experiment index")
	}
	var indexed []string
	group := regexp.MustCompile("\\((`[a-z0-9]+`(?:, `[a-z0-9]+`)*)\\)")
	for _, m := range group.FindAllStringSubmatch(index, -1) {
		for _, k := range strings.Split(m[1], ", ") {
			if k = strings.Trim(k, "`"); !slices.Contains(indexed, k) {
				indexed = append(indexed, k)
			}
		}
	}
	keys := experiments.Keys()
	if !sameSet(indexed, keys) {
		t.Errorf("index -only keys %v, registry keys %v", indexed, keys)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\[-only ([a-z0-9,]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("package comment has no -only list")
	}
	if usage := strings.Split(string(m[1]), ","); !slices.Equal(usage, keys) {
		t.Errorf("package comment -only list %v, registry keys %v", usage, keys)
	}
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
