package eval

// withLayers replaces the Problem's layer mask (default allLayers).
func withLayers(m layers) Option { return func(p *Problem) { p.layers = m } }

// withWorkers fixes the goroutines of every cell pass (caller included)
// at n, in place of the idle-core rule (0 restores the rule).
func withWorkers(n int) Option { return func(p *Problem) { p.workers = n } }

// without clears the given layers from the default mask.
func without(l layers) Option { return withLayers(allLayers &^ l) }

// WithoutSharedCaches opts a Problem out of both process-wide caches; it
// gives the external benchmarks of this package the unshared arm.
var WithoutSharedCaches = without(layerSharedTapes | layerSharedWarmups)
