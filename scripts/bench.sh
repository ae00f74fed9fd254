#!/usr/bin/env bash
# bench.sh — capture the evaluation-engine perf trajectory.
#
# Default mode runs the evaluation-engine benchmarks (serial, batched,
# reference-engine, multi-problem sweep,
# plus the from-scratch simulation) with -benchmem and writes a JSON
# summary (ns/op, B/op, allocs/op per density/variant) so future PRs can
# compare against the recorded baseline. The multi-problem sweep lives in
# internal/eval, whose test-only layer mask gives it the unshared arm.
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#
# Smoke mode (CI regression gate):
#
#	scripts/bench.sh --smoke [min_ratio_pct] [max_allocs]
#
# runs the density-300 batch benchmark through BOTH engines in one
# process — the default fast engine and the full-tail reference engine —
# and fails when reference/fast falls below min_ratio_pct (default 150,
# i.e. the fast engine must stay at least 1.5x ahead). The paired ratio
# replaces the old absolute ns/op baseline: both arms run on the same
# runner at the same moment, so the gate is robust to machine speed while
# still catching the failure it exists for — the default path silently
# degrading towards (or past) reference-engine cost.
#
# The smoke gate also enforces an allocs/op ceiling on the fast d300 arm
# (default 20000). Unlike ns/op, allocation counts are machine-independent
# and deterministic, so an absolute ceiling is safe in CI. The batch sits
# around 3.4k allocs/op with protocol pooling and the arena paths live;
# the ceiling at ~6x that still sits far below the ~95k a regression to
# per-node-per-candidate protocol allocation would produce.
#
# Finally, when a committed BENCH_PR*.json baseline exists, the gate
# compares the allocs/op of the fast batch and of the serial Evaluate
# (BenchmarkEvaluation) at every paper density, and of the shared
# multi-problem sweep (BenchmarkMultiProblemSweep/shared, internal/eval),
# against the newest baseline with 25% slack. The d100/d200 rows cover
# the masked scenario-store children the d300 rows never touch. This is the zero-cost-when-disabled check for the decision
# tracing hooks: tracing is compiled in but disabled in the benchmark
# (OnDecision nil), and a nil-check per decision site must stay
# allocation-neutral — any drift shows up here as an absolute,
# machine-independent diff against the recorded trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--smoke" ]; then
  MIN_RATIO_PCT="${2:-150}"
  MAX_ALLOCS="${3:-20000}"
  RAW="$(go test -run '^$' -bench 'BenchmarkEvaluateBatch(Reference)?/300' -benchmem -benchtime=3x . 2>&1)"
  echo "$RAW"
  FAST="$(echo "$RAW" | awk '$1 ~ /^BenchmarkEvaluateBatch\/300/ {print $3; exit}')"
  REF="$(echo "$RAW" | awk '$1 ~ /^BenchmarkEvaluateBatchReference\/300/ {print $3; exit}')"
  ALLOCS="$(echo "$RAW" | awk '$1 ~ /^BenchmarkEvaluateBatch\/300/ {print $7; exit}')"
  if [ -z "${FAST:-}" ] || [ -z "${REF:-}" ] || [ -z "${ALLOCS:-}" ]; then
    echo "smoke: missing measurement (fast=${FAST:-none}, reference=${REF:-none}, allocs=${ALLOCS:-none})" >&2
    exit 1
  fi
  RATIO_PCT=$((REF * 100 / FAST))
  echo "smoke: fast ${FAST} ns/op vs reference ${REF} ns/op -> ${RATIO_PCT}% (fail below ${MIN_RATIO_PCT}%)"
  echo "smoke: fast d300 batch ${ALLOCS} allocs/op (fail above ${MAX_ALLOCS})"
  if [ "$RATIO_PCT" -lt "$MIN_RATIO_PCT" ]; then
    echo "smoke: fast engine no longer holds a ${MIN_RATIO_PCT}% lead over the reference engine" >&2
    exit 1
  fi
  if [ "$ALLOCS" -gt "$MAX_ALLOCS" ]; then
    echo "smoke: fast d300 batch allocates ${ALLOCS}/op, above the ${MAX_ALLOCS} ceiling (allocation regression)" >&2
    exit 1
  fi
  # Fast d100/d200 batches: the masked-child paths of the scenario store.
  SMALL_RAW="$(go test -run '^$' -bench '^BenchmarkEvaluateBatch$/^(100|200)$' -benchmem -benchtime=3x . 2>&1)"
  echo "$SMALL_RAW"
  # Serial arm: one candidate through the whole committee, the
  # per-evaluation cost every optimizer pays. It runs at the ledger's
  # benchtime because the Problem's per-instance set-up allocations are
  # amortised over the iterations: at 3x they would dominate allocs/op.
  # It runs at GOMAXPROCS 2, the core count the BENCH files are recorded
  # on: an Evaluate spreads its committee over the idle cores, and each
  # worker warms its own instantiation arena, so the count of this arena
  # warm-up inside the 20 iterations grows with the cores.
  SERIAL_RAW="$(go test -run '^$' -bench '^BenchmarkEvaluation$/^(100|200|300)$' -benchmem -benchtime=20x -cpu 2 . 2>&1)"
  echo "$SERIAL_RAW"
  # allocs_of RAW BENCHMARK DENSITY prints the allocs/op of one row.
  allocs_of() {
    echo "$1" | awk -v row="^$2/$3(-[0-9]+)?\$" '$1 ~ row {print $7; exit}'
  }
  SERIAL_ALLOCS_100="$(allocs_of "$SERIAL_RAW" BenchmarkEvaluation 100)"
  SERIAL_ALLOCS_200="$(allocs_of "$SERIAL_RAW" BenchmarkEvaluation 200)"
  SERIAL_ALLOCS_300="$(allocs_of "$SERIAL_RAW" BenchmarkEvaluation 300)"
  BATCH_ALLOCS_100="$(allocs_of "$SMALL_RAW" BenchmarkEvaluateBatch 100)"
  BATCH_ALLOCS_200="$(allocs_of "$SMALL_RAW" BenchmarkEvaluateBatch 200)"
  if [ -z "${SERIAL_ALLOCS_100:-}" ] || [ -z "${SERIAL_ALLOCS_200:-}" ] || [ -z "${SERIAL_ALLOCS_300:-}" ] ||
    [ -z "${BATCH_ALLOCS_100:-}" ] || [ -z "${BATCH_ALLOCS_200:-}" ]; then
    echo "smoke: missing measurement (serial or d100/d200 batch allocs)" >&2
    exit 1
  fi
  # Shared multi-problem sweep: fresh Problems of all three densities per
  # iteration, at the ledger's benchtime for the same amortisation reason.
  SWEEP_RAW="$(go test -run '^$' -bench '^BenchmarkMultiProblemSweep$/^shared$' -benchmem -benchtime=20x ./internal/eval 2>&1)"
  echo "$SWEEP_RAW"
  SWEEP_ALLOCS="$(echo "$SWEEP_RAW" | awk '$1 ~ /^BenchmarkMultiProblemSweep\/shared/ {print $7; exit}')"
  if [ -z "${SWEEP_ALLOCS:-}" ]; then
    echo "smoke: missing measurement (shared sweep allocs)" >&2
    exit 1
  fi
  BASELINE="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)"
  # gate_allocs BENCHMARK AXIS LABEL ALLOCS compares one allocs/op figure
  # against the newest baseline's entry of that benchmark whose axis
  # (e.g. '"density": 300' or '"variant": "shared"') matches, with 25%
  # slack.
  gate_allocs() {
    local base
    base="$(awk -F'"allocs_per_op": ' -v b="\"benchmark\": \"$1\"," -v axis="$2" \
      'index($0, b) && index($0, axis) {split($2, a, "}"); print a[1]; exit}' "$BASELINE")"
    if [ -z "${base:-}" ]; then
      echo "smoke: no $3 entry in ${BASELINE}; skipping baseline allocs comparison"
      return 0
    fi
    local limit=$((base + base / 4))
    echo "smoke: $3 $4 allocs/op vs baseline ${base} in ${BASELINE} (fail above ${limit})"
    if [ "$4" -gt "$limit" ]; then
      echo "smoke: $3 allocs/op grew >25% over ${BASELINE} (allocation regression; disabled tracing must also stay allocation-neutral)" >&2
      exit 1
    fi
  }
  if [ -n "${BASELINE:-}" ]; then
    gate_allocs BenchmarkEvaluateBatch '"density": 300' "fast d300 batch" "$ALLOCS"
    gate_allocs BenchmarkEvaluateBatch '"density": 100' "fast d100 batch" "$BATCH_ALLOCS_100"
    gate_allocs BenchmarkEvaluateBatch '"density": 200' "fast d200 batch" "$BATCH_ALLOCS_200"
    gate_allocs BenchmarkEvaluation '"density": 100' "serial d100 Evaluate" "$SERIAL_ALLOCS_100"
    gate_allocs BenchmarkEvaluation '"density": 200' "serial d200 Evaluate" "$SERIAL_ALLOCS_200"
    gate_allocs BenchmarkEvaluation '"density": 300' "serial d300 Evaluate" "$SERIAL_ALLOCS_300"
    gate_allocs BenchmarkMultiProblemSweep '"variant": "shared"' "shared sweep" "$SWEEP_ALLOCS"
  fi
  # Fidelity-ladder arm: a ladder-enabled d300 MLS run must spend
  # measurably fewer full-committee evaluations than the full-fidelity
  # baseline. TestFidelityLadderSmoke runs both arms paired in one
  # process, logs the ratio, and fails below 1.3x (the aggregate >= 2x
  # bound lives in TestFidelityLadderRegretGate).
  LADDER="$(go test -run '^TestFidelityLadderSmoke$' -v . 2>&1)" || {
    echo "$LADDER"
    echo "smoke: fidelity-ladder arm failed" >&2
    exit 1
  }
  echo "$LADDER" | grep "fidelity-ladder-ratio:" || true
  RATIO="$(echo "$LADDER" | sed -n 's/.*fidelity-ladder-ratio: \([0-9.]*\).*/\1/p' | head -1)"
  if [ -z "${RATIO:-}" ]; then
    echo "smoke: fidelity-ladder ratio not reported" >&2
    exit 1
  fi
  echo "smoke: fidelity ladder saves ${RATIO}x full-committee evaluations on d300 MLS (fail below 1.3)"
  exit 0
fi

OUT="${1:-BENCH.json}"
BENCHTIME="${2:-20x}"

RAW="$(go test -run '^$' -bench 'BenchmarkEvaluation|BenchmarkEvaluateBatch|BenchmarkEvaluateSerial64|BenchmarkMultiProblemSweep|BenchmarkTableII_Simulation' \
  -benchmem -benchtime="$BENCHTIME" . ./internal/eval 2>&1)"
echo "$RAW"

echo "$RAW" | awk -v benchtime="$BENCHTIME" '
  BEGIN { n = 0 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    split(name, parts, "/")
    variant = parts[2]
    if (variant ~ /^[0-9]+$/)
      axis = "\"density\": " variant
    else
      axis = "\"density\": null, \"variant\": \"" variant "\""
    lines[n++] = sprintf("  {\"benchmark\": \"%s\", %s, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
      parts[1], axis, $2, $3, $5, $7)
  }
  END {
    print "{"
    print "\"benchtime\": \"" benchtime "\","
    print "\"results\": ["
    for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
    print "]}"
  }
' > "$OUT"

echo "wrote $OUT"
