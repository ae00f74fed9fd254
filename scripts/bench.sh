#!/usr/bin/env bash
# bench.sh — capture the evaluation-engine perf trajectory.
#
# Default mode runs the evaluation-engine benchmarks (serial,
# committee-parallel, batched, reference-engine, multi-problem sweep,
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
# compares the allocs/op of the fast d300 batch and of the serial d300
# Evaluate (BenchmarkEvaluation/300) against the newest baseline with 25%
# slack. This is the zero-cost-when-disabled check for the decision
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
  # Serial d300 arm: one candidate through the whole committee, the
  # per-evaluation cost every optimizer pays. It runs at the ledger's
  # benchtime because the Problem's per-instance set-up allocations are
  # amortised over the iterations: at 3x they would dominate allocs/op.
  SERIAL_RAW="$(go test -run '^$' -bench '^BenchmarkEvaluation$/^300$' -benchmem -benchtime=20x . 2>&1)"
  echo "$SERIAL_RAW"
  SERIAL_ALLOCS="$(echo "$SERIAL_RAW" | awk '$1 ~ /^BenchmarkEvaluation\/300/ {print $7; exit}')"
  if [ -z "${SERIAL_ALLOCS:-}" ]; then
    echo "smoke: missing measurement (serial d300 allocs)" >&2
    exit 1
  fi
  BASELINE="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)"
  # gate_allocs BENCHMARK LABEL ALLOCS compares one d300 allocs/op figure
  # against the newest baseline with 25% slack.
  gate_allocs() {
    local base
    base="$(awk -F'"allocs_per_op": ' -v b="\"benchmark\": \"$1\"," \
      'index($0, b) && /"density": 300/ {split($2, a, "}"); print a[1]; exit}' "$BASELINE")"
    if [ -z "${base:-}" ]; then
      echo "smoke: no d300 $2 entry in ${BASELINE}; skipping baseline allocs comparison"
      return 0
    fi
    local limit=$((base + base / 4))
    echo "smoke: $2 $3 allocs/op vs baseline ${base} in ${BASELINE} (fail above ${limit})"
    if [ "$3" -gt "$limit" ]; then
      echo "smoke: $2 allocs/op grew >25% over ${BASELINE} — disabled tracing must stay allocation-neutral (trace hooks are nil-check cheap)" >&2
      exit 1
    fi
  }
  if [ -n "${BASELINE:-}" ]; then
    gate_allocs BenchmarkEvaluateBatch "fast d300 batch" "$ALLOCS"
    gate_allocs BenchmarkEvaluation "serial d300 Evaluate" "$SERIAL_ALLOCS"
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
