#!/usr/bin/env bash
# ab.sh runs a paired A/B of one workload: the working tree against a base
# ref, with identical benchmark code on both sides.
#
#   bench/ab.sh <base-ref> <workload> [pairs]
#
# The base side is the base ref's tree (exported with git archive, so the
# repository's git state is untouched) with this tree's bench/ copied over
# it. Both aedb-bench binaries are built under .bench_build/ab/. Every pair
# runs both sides on seed 1 for BENCHMARK.json's run_seconds, alternating
# which side runs first; at least 10 pairs are run. On a deterministic
# workload both sides must give the same result digest for every instance.
# The report gives each side's median and quartiles per end-to-end metric,
# the head's wins, and the verdict of the gain rule: at least 9/10 wins
# and a median gap larger than the base side's interquartile spread.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: bench/ab.sh <base-ref> <workload> [pairs]" >&2
	exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
if [ "$pairs" -lt 10 ]; then
	echo "ab.sh: the gain rule needs at least 10 pairs, got $pairs" >&2
	exit 2
fi

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
build="$root/.bench_build"
ab="$build/ab"
mkdir -p "$ab" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

sha="$(git rev-parse --verify "$base_ref^{commit}")"
src="$ab/src-$sha"
rm -rf "$src"
mkdir -p "$src"
git archive "$sha" | tar -x -C "$src"
rm -rf "$src/bench"
cp -R bench "$src/bench"

(cd "$src/bench" && go build -o "$ab/base" ./aedb-bench) >&2
(cd bench && go build -o "$ab/head" ./aedb-bench) >&2
echo "ab.sh: base $base_ref ($sha) vs working tree, $workload, $pairs pairs" >&2
exec "$ab/head" --ab-base "$ab/base" --workload "$workload" --pairs "$pairs" \
	--seconds "$seconds" --workdir "$build/work"
