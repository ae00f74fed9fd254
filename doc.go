// Package aedbmls reproduces "A Parallel Multi-objective Local Search for
// AEDB Protocol Tuning" (Iturriaga, Ruiz, Nesmachnow, Dorronsoro, Bouvry —
// IPDPS Workshops 2013).
//
// The repository contains, built from scratch on the standard library:
//
//   - a discrete-event MANET simulator (internal/sim, internal/manet,
//     internal/mobility, internal/radio) standing in for ns-3;
//   - the AEDB energy-aware broadcasting protocol (internal/aedb) plus
//     flooding and distance-based baselines;
//   - the five-parameter tuning problem evaluated on a fixed committee of
//     ten networks (internal/eval);
//   - a multi-objective optimisation toolkit: constrained Pareto dominance,
//     Adaptive Grid Archiving, quality indicators, Wilcoxon tests
//     (internal/moo, internal/archive, internal/indicators, internal/stats);
//   - the paper's contribution, the parallel multi-objective local search
//     AEDB-MLS (internal/core), and the two reference MOEAs NSGA-II
//     (internal/nsga2) and CellDE (internal/cellde);
//   - the Fast99 extended-FAST sensitivity analysis used to design the
//     local-search operators (internal/fast99);
//   - experiment drivers regenerating every table and figure of the paper
//     (internal/experiments, cmd/aedb-experiments, bench_test.go).
//
// # Warm-start evaluation architecture
//
// The binding cost of every optimiser in this repository is the fitness
// function: one evaluation simulates ten committee networks from t=0 to
// t=40 s, and an AEDB-MLS run spends 24,000 evaluations. The first 30
// simulated seconds of each network (warm-up: mobility walks plus hello
// beaconing that fills neighbor tables) depend only on the frozen scenario
// seed — never on the AEDB parameter vector under evaluation — so the
// evaluation engine simulates each scenario's warm-up once, captures a
// manet.Snapshot (mobility-model state, RNG streams, neighbor tables, the
// pending beacon/mobility event schedule, in-flight beacon frames), and
// every subsequent evaluation clones the snapshot and simulates only the
// 10-second broadcast phase.
//
// Determinism contract: the snapshot path is bit-for-bit identical to a
// from-scratch simulation — the same metrics, the same event order, the
// same RNG draws. This is load-bearing (the paper's committee design
// requires every candidate to be judged on exactly the same scenarios) and
// is enforced by equivalence tests across densities and seeds; see
// internal/manet/snapshot.go for the mechanism and PERF.md for the
// numbers. The event engine backing it schedules the simulation hot path
// (beacons, mobility changes, frame ends) as allocation-free tagged
// events against a value-indexed heap, and the broadcast medium resolves
// "who hears this transmission" through a uniform-grid spatial index
// rather than an O(N) node scan, which is what lets scenarios scale past
// 1,000 nodes.
//
// # The evaluation engine: fast by default, reference on demand
//
// Every evaluation path — serial eval.Problem.Evaluate, the
// committee-parallel variant, and the batched EvaluateBatch — runs one
// throughput engine by default (promoted from the batch-only fast path
// of PR 2 after its soak period):
//
//   - the beacon evolution of each committee scenario is recorded once
//     PER PROCESS into a manet.BeaconTape — keyed by (config
//     fingerprint, scenario seed, node count), so every Problem over the
//     same scenario generator replays one recording, and smaller
//     densities derive their tape from the largest-committee parent as a
//     masked prefix (manet.BeaconTape.Mask) — and shared by every
//     simulation of that scenario, which then strips beacon events from
//     its schedule entirely (the process-wide cache is capped; past
//     the cap a Problem records its own tapes);
//   - each simulation stops at broadcast quiescence (no pending protocol
//     timer, no data frame in flight) instead of running its
//     protocol-independent tail;
//   - instantiation buffers — node and RNG blocks, mobility-model
//     state, the O(N^2) neighbor index, the event heap, the spatial
//     grid, neighbor tables, first-reception buffers — are recycled
//     through manet.Arena instead of being reallocated per simulation;
//   - warm-up snapshots are shared across densities: the committee is
//     frozen density-independently, one largest-committee warm-up is
//     built per scenario seed and masked down per density
//     (manet.Snapshot.Mask);
//   - the data cascade's path-loss physics runs through a fused
//     d2-space kernel (radio.Kernel): reception powers computed
//     directly from squared distances — no square root, no division,
//     whole candidate slices per call — with the sensitivity
//     cutoff precomputed as a d2-space threshold.
//
// Every caller-facing evaluation setting lives in one eval.Settings
// value, embedded in Config and experiments.Scale and bound to the same
// flags on aedb-mls, aedb-moea and aedb-experiments.
//
// eval.WithReferencePath, a test oracle rather than a setting, opts a
// Problem into the full-tail reference engine with complete per-node
// accounting. The two engines are bit-identical on every objective, violation and
// Metrics field — pinned by the golden-metrics corpus
// (internal/eval/testdata/golden_metrics.json), equivalence tables,
// property and fuzz tests (manet.FuzzSnapshotRoundTrip), and e2e Tune
// determinism tests, plus a -race CI job.
//
// The simulator runs one path-loss model, Table II's log-distance loss
// (radio.LogDistance), through the fused kernel. The reference formula
// (radio.NewExactKernel, selected by manet.Config.ExactPhysics) is a test
// oracle, not a setting: the two physics arms agree within a ULP-scaled
// bound per reception power (radio.FuzzKernelVsReference) and exactly on
// every discrete metric; the continuous energy sums differ in the last
// mantissa bits, so the golden corpus records both arms and the shared
// caches key on the arm. See ARCHITECTURE.md for the full caching-layer
// and knob guide.
//
// EvaluateBatch additionally evaluates whole candidate sets
// scenario-major — one arena-backed wave per committee scenario streams
// every candidate — and every optimiser detects the capability through
// moo.BatchProblem: the MLS batched neighborhood step
// (core.Config.NeighborhoodSize, aedbmls.Config.NeighborhoodSize),
// core.ImproveBatch, and whole-generation evaluation in NSGA-II, SPEA2
// and CellDE's initial grid. Both paths run on one scheduler of
// (candidate, scenario) cells that adds helper goroutines only for idle
// cores, so a single Evaluate spreads its ten-network committee over the
// cores that optimiser-level parallelism leaves free, with no knob to
// set. All paths reduce the committee average in committee order, so
// results are bit-identical for any schedule.
//
// See cmd/README.md for the binaries and the per-experiment index, and
// ARCHITECTURE.md for the evaluation pipeline.
package aedbmls
