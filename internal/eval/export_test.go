package eval

// withLayers replaces the Problem's layer mask (default allLayers).
func withLayers(m layers) Option { return func(p *Problem) { p.layers = m } }

// withWorkers fixes the goroutines of every cell pass (caller included)
// at n, in place of the idle-core rule (0 restores the rule).
func withWorkers(n int) Option { return func(p *Problem) { p.workers = n } }

// without clears the given layers from the default mask.
func without(l layers) Option { return withLayers(allLayers &^ l) }

// WithoutSharedCaches opts a Problem out of the scenario store; it gives
// the external benchmarks of this package the unshared arm.
var WithoutSharedCaches = without(layerShared)

// setStoreLimit sets the scenario store's cap (storeCap by default) and
// returns the previous one; the store shrinks to a lowered cap at the
// next resolution.
func setStoreLimit(n int) int {
	store.mu.Lock()
	defer store.mu.Unlock()
	prev := store.limit
	store.limit = n
	return prev
}
