#!/usr/bin/env bash
# run.sh builds the benchmark program (bench/aedb-bench) inside the checkout
# and runs it.
#
#   bench/run.sh                      every workload, seed 1, end-to-end metrics
#   bench/run.sh --trace              every workload, traced: per-layer metrics
#   bench/run.sh --workload sweep-cold --seed 2 --seconds 28 --trace 0
#   bench/run.sh --out bench/results/NAME.json   also write a results file
#
# All flags go to aedb-bench (see bench/README.md). The Go build cache, the
# binary and the reps' scratch files live under .bench_build/ (or
# $CARGO_TARGET_DIR), so nothing is written outside the checkout and nothing
# is fetched from the network.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

bin="$build/aedb-bench"
(cd bench && go build -o "$bin.tmp.$$" ./aedb-bench) >&2
mv -f "$bin.tmp.$$" "$bin"

if commit="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
	export AEDB_BENCH_COMMIT="$commit"
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		export AEDB_BENCH_DIRTY=1
	fi
fi

# A bare --trace means --trace 1.
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace | -trace)
		if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then
			args+=("$1" "$2")
			shift
		else
			args+=("$1" 1)
		fi
		;;
	*) args+=("$1") ;;
	esac
	shift
done

exec "$bin" --workdir "$build/work" "${args[@]}"
