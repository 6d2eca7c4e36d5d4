// Command perfbench measures SPICE's time to a merged PMF end to end,
// through the entry points users call: core.RunSweep over the local,
// batched and distributed runners, and the control plane over HTTP.
//
// One run prints, as the last line of standard output, a JSON object
// with the keys correct, attempted, failed and metrics. With --trace 0
// the metrics are the end-to-end set (endToEnd); with --trace 1 the
// run is repeated with span recording around every layer boundary the
// benchmark wraps and the metrics are the per-layer set (perLayer).
// README.md in this directory documents the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees, reported by untraced
// runs on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_result_p50_ms", "ms"},
	{"time_to_result_p90_ms", "ms"},
	{"cpu_ms_per_pull", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by traced runs on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"md.build_ms_p50", "ms"},
	{"md.steps", "count"},
	{"md.step_us_p50", "us"},
	{"neighbor.rebuilds_per_kstep", "count"},
	{"neighbor.pairs_per_rebuild", "count"},
	{"md.batch_replica_steps_per_s", "1/s"},
	{"smd.pull_ms_p50", "ms"},
	{"smd.pull_ms_p90", "ms"},
	{"campaign.runner_s", "s"},
	{"campaign.worker_busy_frac", "frac"},
	{"jarzynski.analysis_ms", "ms"},
	{"dist.idle_wait_s", "s"},
	{"dist.first_lease_ms", "ms"},
	{"dist.polls_per_job", "count"},
	{"dist.assignments_per_job", "count"},
	{"dist.retries", "count"},
	{"dist.speculations_wasted", "count"},
	{"wire.bytes_per_pull", "B"},
	{"wire.ckpts_per_pull", "count"},
	{"wire.ckpt_wire_B", "B"},
	{"wire.ckpt_reduction_x", "x"},
	{"wire.write_us_p50", "us"},
	{"journal.fsyncs_per_job", "count"},
	{"journal.fsync_ms_p50", "ms"},
	{"journal.fsync_ms_p99", "ms"},
	{"journal.bytes_per_job", "B"},
	{"spool.writes_per_job", "count"},
	{"queue.fsyncs_per_campaign", "count"},
	{"controlplane.submit_ms_p50", "ms"},
	{"controlplane.submit_ms_p99", "ms"},
	{"controlplane.queue_wait_ms_p50", "ms"},
	{"controlplane.run_ms_p50", "ms"},
	{"controlplane.result_ms_p50", "ms"},
	{"controlplane.list_ms_p50", "ms"},
	{"controlplane.list_ms_p99", "ms"},
	{"controlplane.status_ms_p90", "ms"},
	{"proc.alloc_mb_per_pull", "MB"},
	{"proc.gc_cycles_per_pull", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	window   time.Duration // how long the measured part of the run lasts
	trace    bool
	dir      string // scratch directory for state dirs and span dumps
}

// outcome is what a workload hands back to main for printing.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

const (
	// Every run times set-up rounds before its measured window: at least
	// minSetups, then more until setupBudget has passed (at most
	// maxSetups), so setup_s is a median of many rounds.
	minSetups   = 20
	maxSetups   = 2000
	setupBudget = time.Second
	// setupBatch is the shortest a timed round may take. Where one
	// set-up takes far less (building a local runner is a few
	// allocations), a round builds a batch of rigs and reports the mean,
	// so the clock's own cost does not dominate the figure.
	setupBatch = 100 * time.Microsecond
)

// timeSetups times set-up rounds and returns the set-up time per rig of
// each. setup builds rig number n and returns the function that stops
// it; a round stops its rigs after its timed part. The first rounds
// double the batch until one lasts setupBatch and are not reported.
func timeSetups(setup func(n int) (stop func() error, err error)) ([]float64, error) {
	var times []float64
	n, batch := 0, 1
	start := time.Now()
	for len(times) < maxSetups && (len(times) < minSetups || time.Since(start) < setupBudget) {
		stops := make([]func() error, 0, batch)
		t0 := time.Now()
		for range batch {
			stop, err := setup(n)
			if err != nil {
				return nil, errors.Join(append([]error{err}, stopAll(stops))...)
			}
			n++
			stops = append(stops, stop)
		}
		took := time.Since(t0)
		if err := stopAll(stops); err != nil {
			return nil, err
		}
		if took < setupBatch && len(times) == 0 {
			batch *= 2
			continue
		}
		times = append(times, took.Seconds()/float64(batch))
	}
	return times, nil
}

func stopAll(stops []func() error) error {
	var errs []error
	for _, stop := range stops {
		errs = append(errs, stop())
	}
	return errors.Join(errs...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"sweep-local":     func(o options) (*outcome, error) { return runSweep(o, sweepLocal) },
	"sweep-batch":     func(o options) (*outcome, error) { return runSweep(o, sweepBatch) },
	"sweep-dist":      func(o options) (*outcome, error) { return runSweep(o, sweepDist) },
	"campaign-stream": runStream,
}

func main() {
	workload := flag.String("workload", "", "workload to run: sweep-local, sweep-batch, sweep-dist or campaign-stream")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured part of the run, in seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for state directories and span dumps")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		dir:      scratch,
	}
	out, err := run(o)
	// The span dump is the only artifact worth keeping; state
	// directories go with the scratch directory.
	if o.trace && err == nil {
		err = keepSpans(scratch, filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	}
	if rmErr := os.RemoveAll(scratch); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// resultLine renders the final JSON object. Every metric in defs must
// have been measured; a missing one is a harness bug, not a zero.
func resultLine(out *outcome, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
}

// keepSpans moves the span dump out of the scratch directory.
func keepSpans(scratch, dst string) error {
	src := filepath.Join(scratch, spansFile)
	if _, err := os.Stat(src); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return os.Rename(src, dst)
}
