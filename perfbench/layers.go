package main

import (
	"sort"

	"spice/internal/analysis"
	"spice/internal/dist"
)

// layerInput carries what the per-layer metrics need besides the spans:
// the counters the program reports about itself over the traced part,
// the workload-specific span derivations, and the untraced part of the
// run that trace mode measures first.
type layerInput struct {
	results int // sweeps or stream campaigns in the traced part
	pulls   int // pulls (dist jobs) in the traced part

	co          dist.Stats       // coordinator counters (zero without dist)
	workers     dist.WorkerStats // worker counters (zero without dist)
	assignments int              // leases granted (dist) or pulls started (dist.LocalRunner)

	// Derived by the workload from its own span structure.
	runnerS      float64 // median time inside Runner.Run per sweep
	analysisMs   float64 // median RunSweep time outside Runner.Run per sweep
	busyWindowS  float64 // time the fleet could have been pulling
	idleWaitS    float64 // summed gaps between a worker's consecutive pulls, per result
	firstLeaseMs float64 // median time from a campaign's start to its first pull

	// campaign-stream only.
	campaigns          int       // control-plane campaigns
	queueWaitMs, runMs []float64 // control-plane Started-Submitted and Finished-Started
	lateMs             []float64 // open-loop generator lateness

	untraced      allocs // Go heap activity of the untraced part
	untracedPulls int
	overheadPct   float64
}

// layerValues computes every per-layer metric. A layer the workload
// does not exercise reads 0.
func layerValues(tr *tracer, in layerInput) map[string]float64 {
	pulls := float64(in.pulls)
	v := map[string]float64{}

	steps := float64(tr.pullSteps)
	rebuilds := float64(tr.rebuilds.Load())
	v["md.build_ms_p50"] = analysis.Median(durations(tr.named(spanBuild), 1e-6))
	v["md.steps"] = ratio(steps, float64(in.results))
	v["md.step_us_p50"] = analysis.Median(tr.stepUs)
	v["neighbor.rebuilds_per_kstep"] = ratio(rebuilds, steps/1000)
	v["neighbor.pairs_per_rebuild"] = ratio(float64(tr.pairs.Load()), rebuilds)
	v["md.batch_replica_steps_per_s"] = ratio(steps, in.busyWindowS)

	pullMs := durations(tr.named(spanPull), 1e-6)
	v["smd.pull_ms_p50"] = analysis.Median(pullMs)
	v["smd.pull_ms_p90"] = quantile(pullMs, 0.9)
	v["campaign.runner_s"] = in.runnerS
	v["campaign.worker_busy_frac"] = ratio(sum(pullMs)/1000, fleetSize*in.busyWindowS)
	v["jarzynski.analysis_ms"] = in.analysisMs

	v["dist.idle_wait_s"] = in.idleWaitS
	v["dist.first_lease_ms"] = in.firstLeaseMs
	v["dist.polls_per_job"] = ratio(float64(in.co.WorkPolls), pulls)
	v["dist.assignments_per_job"] = ratio(float64(in.assignments), pulls)
	v["dist.retries"] = ratio(float64(in.co.Retries), float64(in.results))
	v["dist.speculations_wasted"] = ratio(float64(in.co.SpeculationsWasted), float64(in.results))

	v["wire.bytes_per_pull"] = ratio(float64(in.co.BytesIn+in.co.BytesOut), pulls)
	v["wire.ckpts_per_pull"] = ratio(float64(in.workers.CheckpointsSent), pulls)
	v["wire.ckpt_wire_B"] = ratio(float64(in.workers.CheckpointBytes), float64(in.workers.CheckpointsSent))
	v["wire.ckpt_reduction_x"] = ratio(float64(in.workers.CheckpointRawBytes), float64(in.workers.CheckpointBytes))
	v["wire.write_us_p50"] = analysis.Median(durations(tr.named(spanWrite), 1e-3))

	fsyncs := tr.named(spanFsync)
	v["journal.fsyncs_per_job"] = ratio(float64(countAttr(fsyncs, layerJournal)), pulls)
	v["journal.fsync_ms_p50"] = analysis.Median(durations(fsyncs, 1e-6))
	v["journal.fsync_ms_p99"] = quantile(durations(fsyncs, 1e-6), 0.99)
	writes := tr.named(spanFSWrite)
	v["journal.bytes_per_job"] = ratio(float64(bytesAttr(writes, layerJournal+"/"+fileJournal)), pulls)
	v["spool.writes_per_job"] = ratio(float64(countAttr(writes, layerJournal+"/"+fileSpool)), pulls)
	v["queue.fsyncs_per_campaign"] = ratio(float64(countAttr(fsyncs, layerQueue)), float64(in.campaigns))

	submit := durations(tr.named(spanSubmit), 1e-6)
	list := durations(tr.named(spanList), 1e-6)
	status := append(durations(tr.named(spanGet), 1e-6), list...)
	v["controlplane.submit_ms_p50"] = analysis.Median(submit)
	v["controlplane.submit_ms_p99"] = quantile(submit, 0.99)
	v["controlplane.queue_wait_ms_p50"] = analysis.Median(in.queueWaitMs)
	v["controlplane.run_ms_p50"] = analysis.Median(in.runMs)
	v["controlplane.result_ms_p50"] = analysis.Median(durations(tr.named(spanResult), 1e-6))
	v["controlplane.list_ms_p50"] = analysis.Median(list)
	v["controlplane.list_ms_p99"] = quantile(list, 0.99)
	v["controlplane.status_ms_p90"] = quantile(status, 0.9)

	v["proc.alloc_mb_per_pull"] = ratio(float64(in.untraced.bytes)/(1<<20), float64(in.untracedPulls))
	v["proc.gc_cycles_per_pull"] = ratio(float64(in.untraced.gcs), float64(in.untracedPulls))
	v["loadgen.late_ms_p99"] = quantile(in.lateMs, 0.99)
	v["trace.overhead_pct"] = in.overheadPct
	return v
}

func countAttr(spans []span, attr string) int {
	n := 0
	for _, s := range spans {
		if s.Attr == attr {
			n++
		}
	}
	return n
}

func bytesAttr(spans []span, attr string) int64 {
	var n int64
	for _, s := range spans {
		if s.Attr == attr {
			n += s.Bytes
		}
	}
	return n
}

// idleGaps sums, over workers, the gaps between each worker's
// consecutive pulls, in seconds. Pulls without a worker (batched
// replicas) have no worker to be idle and are skipped.
func idleGaps(pulls []span) float64 {
	byWorker := map[string][]span{}
	for _, p := range pulls {
		if p.Attr != "" {
			byWorker[p.Attr] = append(byWorker[p.Attr], p)
		}
	}
	total := int64(0)
	for _, ps := range byWorker {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
		for i := 1; i < len(ps); i++ {
			if gap := ps[i].Start - ps[i-1].End; gap > 0 {
				total += gap
			}
		}
	}
	return float64(total) * 1e-9
}

// firstPullAfter is the time in ms from ref to the earliest pull
// start, or -1 when there are no pulls.
func firstPullAfter(pulls []span, ref int64) float64 {
	first := int64(-1)
	for _, p := range pulls {
		if first < 0 || p.Start < first {
			first = p.Start
		}
	}
	if first < 0 {
		return -1
	}
	return float64(first-ref) * 1e-6
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}
