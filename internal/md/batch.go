// Ensemble batching: a Jarzynski campaign steps dozens of replicas of
// the same pore system, and per-engine execution leaves easy money on
// the table — every replica re-checks, re-wraps and re-scans the frozen
// wall/membrane substrate every step, every engine owns a private worker
// pool, and replica state is scattered across independent allocations.
//
// Batch adopts N already-built engines that share a topology and box and
// restructures them for ensemble throughput:
//
//   - Replica state is re-backed into flat SoA arrays (positions,
//     velocities, forces) with replica striding, and the per-atom
//     pair-potential parameter tables (charges, radii) are shared.
//   - One neighbor.StaticGrid is built from the substrate and attached
//     to every replica's list: the grid geometry, the static cell
//     chains and the wrapped static coordinates are computed once for
//     the whole ensemble, and each replica's rebuild bins and scans
//     only its mobile atoms.
//   - Integrator loops iterate a dense mobile-index list instead of
//     branching on Fixed across the (mostly static) atom array.
//   - Step schedules one work item per active replica onto a persistent
//     pool, and the engines' own force pools are funneled into a single
//     shared pool, so a replica's nonbonded chunks and other replicas'
//     steps interleave on the same worker set (replica × chunk).
//
// None of this changes any trajectory: each replica keeps its own RNG
// streams, its own serial-or-chunked force summation order, and a pair
// list that is bit-identical to the unbatched one (see neighbor's
// shared.go). Batched and per-engine execution of the same replica
// produce byte-identical positions and velocities — the determinism
// tests pin this at 1, 8 and 32 replicas.
package md

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"spice/internal/neighbor"
	"spice/internal/vec"
)

// BatchConfig tunes a Batch.
type BatchConfig struct {
	// Workers sizes the replica-step pool and the shared force pool
	// (default GOMAXPROCS). Replica-level parallelism dominates when
	// replicas >= Workers; engines built with Workers > 1 additionally
	// split their pair lists into chunks on the shared force pool.
	Workers int
}

// Batch owns a set of replica engines stepped as one ensemble.
type Batch struct {
	engines []*Engine
	sg      *neighbor.StaticGrid // nil when the substrate is ineligible

	// Flat SoA state backing, replica-strided: replica r's positions are
	// posBase[r*n : (r+1)*n], and likewise for velocities and forces.
	posBase, velBase, forceBase []vec.V

	active  []bool
	tasks   chan int32
	wg      sync.WaitGroup
	quit    chan struct{}
	once    sync.Once
	fpool   *forcePool // shared chunk pool; nil when no engine needs one
	workers int
}

// NewBatch adopts engines into an ensemble batch. The engines must be
// freshly built or otherwise exclusively owned by the caller (the batch
// re-backs their state arrays), share an atom count and box, and not
// already belong to another batch. Engines keep working through their
// own methods (Step, Checkpoint, Restore, Clone) after adoption.
//
// When the shared system is substrate-eligible — fully periodic box,
// fixed atoms forming a contiguous index suffix, identical static
// positions across replicas — one StaticGrid is built and attached to
// every replica. Otherwise the batch still provides SoA state, shared
// pools and parallel stepping, and SubstrateShared reports false.
func NewBatch(engines []*Engine, bc BatchConfig) (*Batch, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("md: empty batch")
	}
	e0 := engines[0]
	n := e0.top.N()
	for r, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("md: nil engine at replica %d", r)
		}
		if e.adopted {
			return nil, fmt.Errorf("md: replica %d already belongs to a batch", r)
		}
		if e.top.N() != n {
			return nil, fmt.Errorf("md: replica %d has %d atoms, replica 0 has %d", r, e.top.N(), n)
		}
		if e.cfg.Box != e0.cfg.Box {
			return nil, fmt.Errorf("md: replica %d box %v differs from replica 0 box %v", r, e.cfg.Box, e0.cfg.Box)
		}
	}
	if bc.Workers <= 0 {
		bc.Workers = runtime.GOMAXPROCS(0)
	}

	b := &Batch{
		engines:   append([]*Engine(nil), engines...),
		posBase:   make([]vec.V, len(engines)*n),
		velBase:   make([]vec.V, len(engines)*n),
		forceBase: make([]vec.V, len(engines)*n),
		active:    make([]bool, len(engines)),
		tasks:     make(chan int32, len(engines)),
		quit:      make(chan struct{}),
		workers:   bc.Workers,
	}

	// Re-back every replica's dynamical state into the strided SoA
	// arrays (three-index slicing so an append on one replica's view can
	// never bleed into the next) and switch the integrators to dense
	// mobile iteration.
	for r, e := range engines {
		st := e.state
		lo, hi := r*n, (r+1)*n
		copy(b.posBase[lo:hi], st.Pos)
		copy(b.velBase[lo:hi], st.Vel)
		copy(b.forceBase[lo:hi], st.Force)
		st.Pos = b.posBase[lo:hi:hi]
		st.Vel = b.velBase[lo:hi:hi]
		st.Force = b.forceBase[lo:hi:hi]
		st.SetMobileIndex()
		e.adopted = true
		b.active[r] = true
	}

	// Share the immutable per-atom parameter tables when they really are
	// identical across replicas (same builder, same topology values).
	if e0.charges != nil {
		shareable := true
		for _, e := range engines[1:] {
			if !float64sEqual(e.charges, e0.charges) || !float64sEqual(e.radii, e0.radii) {
				shareable = false
				break
			}
		}
		if shareable {
			for _, e := range engines[1:] {
				e.charges = e0.charges
				e.radii = e0.radii
			}
		}
	}

	// One substrate grid for the whole ensemble.
	if sg, err := e0.BuildSubstrate(); err == nil {
		ok := true
		for _, e := range engines {
			if !sg.MatchesStatic(e.state.Pos) {
				ok = false
				break
			}
		}
		if ok {
			for _, e := range engines {
				if err := e.AttachSubstrate(sg); err != nil {
					ok = false
					break
				}
			}
		}
		if ok {
			b.sg = sg
		}
	}

	// Funnel per-engine force pools into one shared pool so nonbonded
	// chunks from every replica land on the same workers as the replica
	// step items.
	needPool := false
	for _, e := range engines {
		if e.pool != nil {
			needPool = true
			break
		}
	}
	if needPool {
		b.fpool = newForcePool(bc.Workers)
		for _, e := range engines {
			if e.pool == nil {
				continue
			}
			e.pool.close()
			runtime.SetFinalizer(e, nil)
			e.pool = b.fpool
			e.poolShared = true
		}
	}

	for w := 0; w < bc.Workers; w++ {
		go b.runStepWorker()
	}
	runtime.SetFinalizer(b, func(b *Batch) { b.shutdown() })
	return b, nil
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len returns the replica count.
func (b *Batch) Len() int { return len(b.engines) }

// Engine returns replica r's engine.
func (b *Batch) Engine(r int) *Engine { return b.engines[r] }

// SubstrateShared reports whether the replicas share one static grid.
func (b *Batch) SubstrateShared() bool { return b.sg != nil }

// SetActive includes or excludes replica r from subsequent Steps —
// a driver retires replicas whose work is done. Not safe to
// call concurrently with Step.
func (b *Batch) SetActive(r int, on bool) { b.active[r] = on }

// Active reports whether replica r is stepped.
func (b *Batch) Active(r int) bool { return b.active[r] }

// NumActive returns the number of replicas currently stepped.
func (b *Batch) NumActive() int {
	n := 0
	for _, on := range b.active {
		if on {
			n++
		}
	}
	return n
}

// Step advances every active replica by one timestep, scheduling one
// work item per replica onto the batch pool and waiting for all of them.
// Steady-state cost is allocation-free.
func (b *Batch) Step() {
	njobs := 0
	for _, on := range b.active {
		if on {
			njobs++
		}
	}
	if njobs == 0 {
		return
	}
	b.wg.Add(njobs)
	for r, on := range b.active {
		if on {
			b.tasks <- int32(r)
		}
	}
	b.wg.Wait()
}

// StepN advances all active replicas n timesteps.
func (b *Batch) StepN(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
}

func (b *Batch) runStepWorker() {
	for {
		select {
		case r := <-b.tasks:
			b.engines[r].Step()
			b.wg.Done()
		case <-b.quit:
			return
		}
	}
}

// SetStepObserver installs a sampled per-replica step-latency observer
// (see Engine.SetStepObserver); fn receives the replica index so
// instruments can label per-replica series. nil removes it.
func (b *Batch) SetStepObserver(every int, fn func(r int, d time.Duration)) {
	for r, e := range b.engines {
		if fn == nil {
			e.SetStepObserver(0, nil)
			continue
		}
		r := r
		e.SetStepObserver(every, func(d time.Duration) { fn(r, d) })
	}
}

// SetNeighborObserver installs a per-replica rebuild observer (see
// Engine.SetNeighborObserver). nil removes it.
func (b *Batch) SetNeighborObserver(fn func(r, pairs int)) {
	for r, e := range b.engines {
		if fn == nil {
			e.SetNeighborObserver(nil)
			continue
		}
		r := r
		e.SetNeighborObserver(func(pairs int) { fn(r, pairs) })
	}
}

func (b *Batch) shutdown() {
	b.once.Do(func() {
		close(b.quit)
		if b.fpool != nil {
			b.fpool.close()
		}
	})
}

// Close stops the batch's worker pools. The batch and its engines must
// not step afterwards. Optional — a collected Batch is shut down by a
// finalizer.
func (b *Batch) Close() {
	b.shutdown()
	runtime.SetFinalizer(b, nil)
}

// BuildSubstrate constructs the shareable static grid for this engine's
// system, or reports why the system is ineligible (no nonbonded pair
// potential, open box, no fixed atoms, interleaved fixed atoms).
func (e *Engine) BuildSubstrate() (*neighbor.StaticGrid, error) {
	if e.nlist == nil {
		return nil, fmt.Errorf("md: no neighbor list (nonbonded disabled)")
	}
	return neighbor.NewStaticGrid(e.cfg.Pair.Cutoff(), e.cfg.Skin, e.cfg.Box, e.state.Pos, e.state.Fixed)
}

// AttachSubstrate binds a shared static grid to this engine: the
// neighbor list rebuilds only its mobile side, the per-evaluation wrap
// pass covers only mobile atoms, and the integrator iterates the dense
// mobile index. The trajectory is bit-identical to an unattached engine;
// only the work per step changes. The grid must describe this engine's
// system exactly.
func (e *Engine) AttachSubstrate(sg *neighbor.StaticGrid) error {
	if e.nlist == nil {
		return fmt.Errorf("md: no neighbor list (nonbonded disabled)")
	}
	if cur := e.nlist.Static(); cur != nil && cur != sg {
		return fmt.Errorf("md: engine already attached to a different substrate")
	}
	if !sg.MatchesStatic(e.state.Pos) {
		return fmt.Errorf("md: substrate grid does not match this engine's static atoms")
	}
	if err := e.nlist.AttachStatic(sg); err != nil {
		return err
	}
	e.nMobileWrap = sg.NMobile()
	e.wrapFilled = false
	e.state.SetMobileIndex()
	return nil
}

// Substrate returns the shared static grid this engine is attached to,
// or nil when it runs on the plain path.
func (e *Engine) Substrate() *neighbor.StaticGrid {
	if e.nlist == nil {
		return nil
	}
	return e.nlist.Static()
}

// SubstrateShare caches substrate grids by system key so independently
// built engines of the same system — e.g. a dist worker's concurrently
// leased jobs that share a spec payload — share one grid instead of
// each paying the static build and scan. Safe for concurrent use. An
// ineligible system is cached as a miss and never retried.
type SubstrateShare struct {
	mu    sync.Mutex
	grids map[string]*neighbor.StaticGrid
}

// Attach tries to share a substrate grid with e under key, building it
// from e on first use. It reports whether e now shares a grid; failures
// (ineligible system, mismatched substrate) leave e untouched on its
// plain path.
func (s *SubstrateShare) Attach(key string, e *Engine) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.grids == nil {
		s.grids = make(map[string]*neighbor.StaticGrid)
	}
	sg, seen := s.grids[key]
	if !seen {
		g, err := e.BuildSubstrate()
		if err != nil {
			s.grids[key] = nil // negative cache
			return false
		}
		s.grids[key] = g
		sg = g
	}
	if sg == nil {
		return false
	}
	return e.AttachSubstrate(sg) == nil
}

// Shared reports whether key resolved to a shareable grid. An unknown
// key and a negative-cached ineligible system both report false.
func (s *SubstrateShare) Shared(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grids[key] != nil
}
