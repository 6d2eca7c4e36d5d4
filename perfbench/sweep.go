package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spice/internal/analysis"
	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
)

// sweepKind selects the runner a sweep workload hands to core.RunSweep.
type sweepKind int

const (
	sweepLocal sweepKind = iota // dist.LocalRunner, the production default
	sweepBatch                  // campaign.LocalRunner{Batch: 16}, spice -batch
	sweepDist                   // dist coordinator + loopback workers, with a journal
)

// batchSize is sweep-batch's md.Batch ensemble size.
const batchSize = 16

// sweepConfig is the paper's Fig. 4 priming sweep (core.PaperSweep:
// 3 κ × 4 v over 10 Å, Cumulant2, 200 bootstrap resamples, plus the
// slow stiff reference run) with its RNG seed drawn from the workload
// seed. EngineWorkers is pinned to 1, the precondition for bit-identical
// force sums across runners.
func sweepConfig(seed uint64) core.SweepConfig {
	cfg := core.PaperSweep()
	cfg.System.EngineWorkers = 1
	cfg.Workers = fleetSize
	cfg.Seed = splitmix64(seed)
	return cfg
}

// sweepSpec is the campaign RunSweep derives from cfg for the (κ, v)
// grid; the reference run is checked through the reference PMF.
func sweepSpec(cfg core.SweepConfig) campaign.Spec {
	return campaign.Spec{Kappas: cfg.Kappas, Velocities: cfg.Velocities, Replicas: cfg.Replicas, Distance: cfg.Distance, Seed: cfg.Seed}
}

// sweepPulls is every pull one RunSweep executes: the reference run's
// and the grid's.
func sweepPulls(cfg core.SweepConfig) int {
	return max(cfg.RefReplicas, 2) + len(sweepSpec(cfg).Tasks())
}

// sweepRig is a runner ready to take a sweep.
type sweepRig struct {
	runner campaign.Runner
	local  *dist.LocalRunner // sweep-local
	fleet  *fleet            // sweep-dist
	dir    string            // state directory (sweep-dist)
}

// newSweepRig builds the runner for kind. Set-up ends when the runner
// is built and its fleet (if any) has connected.
func newSweepRig(kind sweepKind, cfg core.SweepConfig, dir string, tr *tracer) (*sweepRig, error) {
	sys := cfg.System
	build := tr.wrapBuild(func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) { return sys.Build(seed) })
	r := &sweepRig{dir: dir}
	switch kind {
	case sweepLocal:
		r.local = &dist.LocalRunner{Build: build, Workers: fleetSize, Events: tr.events()}
		r.runner = r.local
	case sweepBatch:
		r.runner = &campaign.LocalRunner{Build: build, Workers: fleetSize, Batch: batchSize}
	case sweepDist:
		system, err := json.Marshal(sys)
		if err != nil {
			return nil, err
		}
		if r.fleet, err = newFleet(dir, system, tr); err != nil {
			return nil, err
		}
		r.runner = r.fleet.co
		if err := r.fleet.start(tr); err != nil {
			r.stop()
			return nil, err
		}
	}
	r.runner = tr.wrapRunner(r.runner)
	return r, nil
}

// stop shuts the runner down and deletes its state directory, so the
// directories of many set-up rounds do not pile up and slow the
// journals of the rounds after them.
func (r *sweepRig) stop() error {
	if r.fleet == nil {
		return nil
	}
	return errors.Join(r.fleet.stop(), os.RemoveAll(r.dir))
}

// sweepPart is what one measured stretch of sweeps produced.
type sweepPart struct {
	wallsMs []float64     // core.RunSweep wall time per sweep
	cpu     time.Duration // process CPU inside RunSweep
	sweeps  int
	pulls   int
	failed  int // wrong pulls, wrong analyses, failed sweeps
	alloc   allocs
	co      dist.Stats // scheduling counters (dist.LocalRunner counts only assignments)
	workers dist.WorkerStats
}

// measureSweeps runs sweeps through fresh rigs, verifying every result
// against ref, for window: after the first sweep it starts another only
// while that one is expected (from the mean so far) to end inside the
// window.
func measureSweeps(o options, kind sweepKind, cfg core.SweepConfig, ref *core.SweepResult, tr *tracer, window time.Duration) (*sweepPart, error) {
	p := &sweepPart{}
	spec := sweepSpec(cfg)
	perSweep := sweepPulls(cfg)
	a0 := readAllocs()
	start := time.Now()
	for p.sweeps == 0 || time.Since(start)+time.Since(start)/time.Duration(p.sweeps) <= window {
		rig, err := newSweepRig(kind, cfg, filepath.Join(o.dir, fmt.Sprintf("sweep-%d-%t", p.sweeps, tr != nil)), tr)
		if err != nil {
			return nil, err
		}

		c := cfg
		c.Runner = rig.runner
		var id int64
		if tr != nil {
			id = tr.newID()
			tr.enter(id)
		}
		cpu0 := cpuTime()
		t1 := time.Now()
		res, runErr := core.RunSweep(c)
		wall := time.Since(t1)
		p.cpu += cpuTime() - cpu0
		if tr != nil {
			tr.enter(0)
			tr.add(span{ID: id, Name: spanSweep, Start: tr.at(t1), End: tr.at(t1) + int64(wall)})
		}
		switch {
		case rig.fleet != nil:
			addStats(&p.co, rig.fleet.co.Stats())
			addWorkerStats(&p.workers, rig.fleet.workerStats())
		case rig.local != nil:
			addStats(&p.co, rig.local.StatsSnapshot().Stats)
		}
		if err := rig.stop(); err != nil {
			return nil, fmt.Errorf("stopping the %s runner: %w", o.workload, err)
		}
		tr.collectEngines()

		p.wallsMs = append(p.wallsMs, ms(wall))
		p.sweeps++
		fmt.Fprintf(os.Stderr, "%s: sweep %d took %.3f s\n", o.workload, p.sweeps, wall.Seconds())
		p.pulls += perSweep
		if runErr != nil {
			p.failed += len(spec.Tasks()) + 1
			continue
		}
		p.failed += pullMismatches(spec, res.Logs, ref.Logs)
		if !sameAnalysis(res, ref) {
			p.failed++
		}
	}
	p.alloc = readAllocs().since(a0)
	return p, nil
}

// runSweep runs the three sweep workloads.
func runSweep(o options, kind sweepKind) (*outcome, error) {
	cfg := sweepConfig(o.seed)
	// The reference is the untimed in-process campaign.LocalRunner run
	// of the same configuration: every workload must reproduce its work
	// logs, PMFs and optimum bit for bit.
	ref, err := core.RunSweep(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	setups, err := timeSetups(func(i int) (func() error, error) {
		rig, err := newSweepRig(kind, cfg, filepath.Join(o.dir, fmt.Sprintf("setup-%d", i)), nil)
		if err != nil {
			return nil, err
		}
		return rig.stop, nil
	})
	if err != nil {
		return nil, err
	}
	opsPerSweep := len(sweepSpec(cfg).Tasks()) + 1 // every grid pull, plus the merged analysis

	if !o.trace {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := measureSweeps(o, kind, cfg, ref, nil, o.window)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		return &outcome{
			attempted: p.sweeps * opsPerSweep,
			failed:    p.failed,
			values: map[string]float64{
				"setup_s":               analysis.Median(setups),
				"time_to_result_p50_ms": analysis.Median(p.wallsMs),
				"time_to_result_p90_ms": quantile(p.wallsMs, 0.9),
				"cpu_ms_per_pull":       ms(p.cpu) / float64(p.pulls),
				"peak_rss_mb":           rss,
			},
		}, nil
	}

	base, err := measureSweeps(o, kind, cfg, ref, nil, o.window/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(kind == sweepBatch)
	traced, err := measureSweeps(o, kind, cfg, ref, tr, o.window/2)
	if err != nil {
		return nil, err
	}
	in := layerInput{
		results:       traced.sweeps,
		pulls:         traced.pulls,
		co:            traced.co,
		workers:       traced.workers,
		assignments:   traced.co.Assignments,
		untraced:      base.alloc,
		untracedPulls: base.pulls,
		overheadPct:   100 * (analysis.Median(traced.wallsMs) - analysis.Median(base.wallsMs)) / analysis.Median(base.wallsMs),
	}
	sweepSpans(tr, &in)
	if err := tr.dump(filepath.Join(o.dir, spansFile)); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: (base.sweeps + traced.sweeps) * opsPerSweep,
		failed:    base.failed + traced.failed,
		values:    layerValues(tr, in),
	}, nil
}

// sweepSpans derives the sweep-shaped layer inputs from the span tree
// core.run_sweep > campaign.run > {md.build, smd.pull}.
func sweepSpans(tr *tracer, in *layerInput) {
	runs := tr.named(spanRun)
	kids := childrenOf(tr.selected(func(s span) bool { return s.Name == spanPull }))
	runsOf := childrenOf(runs)
	var runnerS, analysisMs, idle, firstLease []float64
	busy := 0.0
	for _, sw := range tr.named(spanSweep) {
		inside := int64(0)
		var pulls []span
		for _, r := range runsOf[sw.ID] {
			inside += r.dur()
			pulls = append(pulls, kids[r.ID]...)
			if f := firstPullAfter(kids[r.ID], r.Start); f >= 0 {
				firstLease = append(firstLease, f)
			}
		}
		busy += float64(inside) * 1e-9
		runnerS = append(runnerS, float64(inside)*1e-9)
		analysisMs = append(analysisMs, float64(sw.dur()-inside)*1e-6)
		idle = append(idle, idleGaps(pulls))
	}
	in.runnerS = analysis.Median(runnerS)
	in.analysisMs = analysis.Median(analysisMs)
	in.busyWindowS = busy
	in.idleWaitS = analysis.Median(idle)
	in.firstLeaseMs = analysis.Median(firstLease)
}
