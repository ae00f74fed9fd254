package eval

import (
	"container/list"
	"reflect"
	"sync"
	"sync/atomic"

	"aedbmls/internal/geom"
	"aedbmls/internal/manet"
	"aedbmls/internal/radio"
)

// The scenario store.
//
// Besides the candidate, a committee cell reads only frozen state of its
// scenario: the warm-up snapshot and the beacon tape. One entry holds
// that state for one (configuration, scenario seed): the parent snapshot
// and parent tape, and one child per node count served — the parent
// masked down to that count (manet.Snapshot.Mask, manet.BeaconTape.Mask;
// at the parent's own count the child is the parent). Each piece is built
// lazily under its own once, outside any lock, so cold builds of
// different scenarios run in parallel.
//
// Share-eligible Problems (see Problem.shareKey) resolve their entries
// through the process-wide store, whose parents are built at
// maskParentNodes nodes: Problems of every paper density over one
// scenario then run one warm-up, one recording and one mask per node
// count. The store holds at most storeCap entries; past it the
// least-recently-resolved entry leaves the map. Problems that already
// hold it keep it alive, and a later request builds a fresh one, so
// eviction decides only what is shared, never a result. Every other
// Problem gets a private entry built at its own node count that never
// enters the store.

// storeCap bounds the store. A committee is ten scenarios, so the cap
// covers dozens of concurrently useful committees while keeping the
// worst case at a few hundred parents and their children.
const storeCap = 512

// storeKey identifies one store entry.
type storeKey struct {
	cfg  sharedCfgKey
	seed uint64
}

// store is the process-wide scenario store; lru runs from the most to
// the least recently resolved entry.
var store = struct {
	mu      sync.Mutex
	limit   int
	entries map[storeKey]*list.Element // values are *entry
	lru     list.List
}{limit: storeCap, entries: map[storeKey]*list.Element{}}

// resolveShared returns the store's entry for (key, seed), creating it
// (unbuilt) on first request and evicting past the cap.
func resolveShared(key sharedCfgKey, cfg manet.Config, seed uint64) *entry {
	k := storeKey{cfg: key, seed: seed}
	store.mu.Lock()
	defer store.mu.Unlock()
	if el, ok := store.entries[k]; ok {
		store.lru.MoveToFront(el)
		return el.Value.(*entry)
	}
	cfg.NumNodes = maskParentNodes
	e := &entry{key: k, cfg: cfg, seed: seed}
	store.entries[k] = store.lru.PushFront(e)
	for store.lru.Len() > store.limit {
		old := store.lru.Remove(store.lru.Back()).(*entry)
		delete(store.entries, old.key)
	}
	return e
}

// lazy is a value built at most once, on first use. done flips after v
// and err are written, so readers outside the build (WarmStartError) can
// inspect err without racing an in-flight build.
type lazy[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
	err  error
}

func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	if !l.done.Load() {
		l.once.Do(func() {
			l.v, l.err = build()
			l.done.Store(true)
		})
	}
	return l.v, l.err
}

// entry is the frozen state of one (configuration, scenario seed), its
// parent pieces built at cfg.NumNodes nodes.
type entry struct {
	key  storeKey // zero for private entries
	cfg  manet.Config
	seed uint64
	snap lazy[*manet.Snapshot]
	tape lazy[*manet.BeaconTape]
	mu   sync.Mutex // guards kids
	kids []*child
}

// child is an entry's state at one node count.
type child struct {
	parent *entry
	nodes  int
	snap   lazy[*manet.Snapshot]
	tape   lazy[*manet.BeaconTape]
}

func (e *entry) snapshot() (*manet.Snapshot, error) {
	return e.snap.get(func() (*manet.Snapshot, error) {
		return manet.BuildSnapshot(e.cfg, e.seed, e.cfg.WarmupTime)
	})
}

func (e *entry) beaconTape() (*manet.BeaconTape, error) {
	return e.tape.get(func() (*manet.BeaconTape, error) {
		snap, err := e.snapshot()
		if err != nil {
			return nil, err
		}
		return snap.RecordBeaconTape(e.cfg.EndTime)
	})
}

// child returns the entry's child at the given node count.
func (e *entry) child(nodes int) *child {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.kids {
		if c.nodes == nodes {
			return c
		}
	}
	c := &child{parent: e, nodes: nodes}
	e.kids = append(e.kids, c)
	return c
}

// snapshot returns the child's warm-up snapshot, or nil when none can be
// built (the cell then simulates from scratch; WarmStartError reports
// why).
func (c *child) snapshot() *manet.Snapshot {
	snap, _ := c.snap.get(func() (*manet.Snapshot, error) {
		parent, err := c.parent.snapshot()
		if err != nil {
			return nil, err
		}
		return parent.Mask(c.nodes)
	})
	return snap
}

// beaconTape returns the child's beacon tape, or nil when the
// configuration cannot be taped (frame-level beacons): the cell then
// replays the plain snapshot.
func (c *child) beaconTape() *manet.BeaconTape {
	tape, _ := c.tape.get(func() (*manet.BeaconTape, error) {
		parent, err := c.parent.beaconTape()
		if err != nil {
			return nil, err
		}
		return parent.Mask(c.nodes)
	})
	return tape
}

// scenarioState returns committee scenario i's frozen state, resolving it
// on first use; racing first uses agree on one child.
func (p *Problem) scenarioState(i int) *child {
	if c := p.states[i].Load(); c != nil {
		return c
	}
	seed := p.scenarios[i].seed
	var e *entry
	if key, ok := p.shareKey(); ok {
		e = resolveShared(key, p.cfg, seed)
	} else {
		e = &entry{cfg: p.cfg, seed: seed}
	}
	p.states[i].CompareAndSwap(nil, e.child(p.cfg.NumNodes))
	return p.states[i].Load()
}

// shareKey reports whether the Problem's scenarios come from the store,
// and under which key. Ineligible: the shared layer off, the reference
// path (a masked snapshot inherits the parent's warm-up RxFrames
// accounting, and complete per-node accounting is what the reference path
// promises), more nodes than the parent, or a config sharedCfgKeyOf
// refuses.
func (p *Problem) shareKey() (sharedCfgKey, bool) {
	if p.layers&layerShared == 0 || p.reference || p.cfg.NumNodes > maskParentNodes {
		return sharedCfgKey{}, false
	}
	return sharedCfgKeyOf(p.cfg)
}

// maskParentNodes is the node count the store's parents are built at:
// the largest paper committee (density 300, 75 nodes). Densities at or
// below it mask the parent down to their own size.
var maskParentNodes = func() int {
	max := 0
	for _, n := range DensityNodes {
		if n > max {
			max = n
		}
	}
	return max
}()

// sharedCfgKey is the comparable fingerprint of a share-eligible
// manet.Config, with NumNodes excluded (that is the mask size). Two
// Problems whose configs collapse to the same key run identical warm-up
// physics, so their scenario state may come from one parent.
type sharedCfgKey struct {
	area                               geom.Rect
	speedMin, speedMax, changeInterval float64
	pathLoss                           radio.Model
	defaultTxPowerDBm, sensitivityDBm  float64
	captureThresholdDB                 float64
	bitRateBps, propagationSpeed       float64
	beaconInterval, neighborTimeout    float64
	beaconBytes, dataBytes             int
	warmupTime, endTime                float64
	// exactPhysics separates the two physics arms: a beacon tape records
	// pre-converted reception powers, so a tape (or snapshot) recorded
	// under the fused kernel must never be served to an exact-physics
	// Problem, and vice versa.
	exactPhysics bool
}

// sharedCfgKeyOf fingerprints cfg, reporting false when the configuration
// is not share-eligible: masking requires fast beacons, and per-scenario
// callbacks or mobility factories cannot be compared (or shared) safely.
func sharedCfgKeyOf(cfg manet.Config) (sharedCfgKey, bool) {
	if !cfg.FastBeacons || cfg.MakeMobility != nil ||
		cfg.OnDataTx != nil || cfg.OnDataRx != nil || cfg.OnDataLost != nil ||
		cfg.OnDecision != nil {
		return sharedCfgKey{}, false
	}
	if cfg.PathLoss == nil || !reflect.TypeOf(cfg.PathLoss).Comparable() {
		return sharedCfgKey{}, false
	}
	return sharedCfgKey{
		area:               cfg.Area,
		speedMin:           cfg.SpeedMin,
		speedMax:           cfg.SpeedMax,
		changeInterval:     cfg.ChangeInterval,
		pathLoss:           cfg.PathLoss,
		defaultTxPowerDBm:  cfg.DefaultTxPowerDBm,
		sensitivityDBm:     cfg.SensitivityDBm,
		captureThresholdDB: cfg.CaptureThresholdDB,
		bitRateBps:         cfg.BitRateBps,
		propagationSpeed:   cfg.PropagationSpeed,
		beaconInterval:     cfg.BeaconInterval,
		neighborTimeout:    cfg.NeighborTimeout,
		beaconBytes:        cfg.BeaconBytes,
		dataBytes:          cfg.DataBytes,
		warmupTime:         cfg.WarmupTime,
		endTime:            cfg.EndTime,
		exactPhysics:       cfg.ExactPhysics,
	}, true
}
