package eval

// withLayers replaces the Problem's layer mask (default allLayers).
func withLayers(m layers) Option { return func(p *Problem) { p.layers = m } }

// without clears the given layers from the default mask.
func without(l layers) Option { return withLayers(allLayers &^ l) }

// WithoutSharedCaches opts a Problem out of both process-wide caches; it
// gives the external benchmarks of this package the unshared arm.
var WithoutSharedCaches = without(layerSharedTapes | layerSharedWarmups)
