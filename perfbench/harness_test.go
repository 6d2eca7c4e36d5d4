package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/jarzynski"
	"spice/internal/md"
	"spice/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, unsorted
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}) {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
	if got := quantile([]float64{3}, 0.99); got != 3 {
		t.Errorf("quantile of one sample = %g, want 3", got)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	const rate, window = 50.0, 200 * time.Second
	due := openLoop(rand.New(rand.NewPCG(1, 2)), rate, window)
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Fatal("due times are not increasing")
	}
	if due[0] <= 0 || due[len(due)-1] >= window {
		t.Fatalf("due times %v..%v outside (0, %v)", due[0], due[len(due)-1], window)
	}
	// Poisson count over the window: mean rate·window = 10000, sd 100.
	if n := float64(len(due)); math.Abs(n-rate*window.Seconds()) > 400 {
		t.Errorf("%v arrivals, want about %v", n, rate*window.Seconds())
	}
	// Exponential gaps: the coefficient of variation is 1.
	var gaps []float64
	for i := 1; i < len(due); i++ {
		gaps = append(gaps, (due[i] - due[i-1]).Seconds())
	}
	mean := sum(gaps) / float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / mean; math.Abs(cv-1) > 0.05 {
		t.Errorf("gap coefficient of variation %.3f, want about 1 (Poisson)", cv)
	}
	again := openLoop(rand.New(rand.NewPCG(1, 2)), rate, window)
	if !reflect.DeepEqual(due, again) {
		t.Error("the same generator seed gave a different schedule")
	}
}

func TestLatenessAccounting(t *testing.T) {
	due := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	sent := []time.Duration{10 * time.Millisecond, 27 * time.Millisecond, 29 * time.Millisecond}
	got := lateness(due, sent)
	want := []float64{0, 7, 0} // on time, 7 ms late, early counts as on time
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v, want %v", got, want)
	}
	if p := quantile(got, 0.99); p != 7 {
		t.Errorf("late p99 = %g, want 7", p)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	if a, b := sweepConfig(1), sweepConfig(2); a.Seed == b.Seed {
		t.Error("sweep seed does not depend on the workload seed")
	}
	if !reflect.DeepEqual(sweepConfig(7), sweepConfig(7)) {
		t.Error("the same seed gave different sweep configurations")
	}
	a, b := streamSchedule(1, 5*time.Second), streamSchedule(2, 5*time.Second)
	if reflect.DeepEqual(a, b) {
		t.Error("stream schedule does not depend on the workload seed")
	}
	if !reflect.DeepEqual(a, streamSchedule(1, 5*time.Second)) {
		t.Error("the same seed gave different stream schedules")
	}
	seen := map[string]bool{}
	for _, arr := range a {
		key := arr.tag.Name + "/" + arr.tag.Tenant
		if seen[key] {
			t.Fatalf("duplicate campaign identity %s: the control plane would refuse it", key)
		}
		seen[key] = true
	}
}

// TestVerificationCatchesPerturbedLog runs a small campaign twice
// through the reference runner, then flips one bit of one sample: the
// verification path must count exactly that pull as failed.
func TestVerificationCatchesPerturbedLog(t *testing.T) {
	sys := streamSystem()
	lr := &campaign.LocalRunner{
		Build:   func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) { return sys.Build(seed) },
		Workers: 2,
	}
	spec := streamSchedule(3, 2*time.Second)[0].spec
	want, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lr.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := pullMismatches(spec, got, want); n != 0 {
		t.Fatalf("identical runs: %d mismatches, want 0", n)
	}
	c := spec.Combos()[0]
	s := &got[c][1].Samples[len(got[c][1].Samples)/2]
	s.Work = math.Nextafter(s.Work, math.Inf(1))
	if n := pullMismatches(spec, got, want); n != 1 {
		t.Errorf("one perturbed sample: %d mismatches, want 1", n)
	}
	got[c] = got[c][:2]
	if n := pullMismatches(spec, got, want); n != 3 {
		t.Errorf("perturbed + two missing logs: %d mismatches, want 3", n)
	}
}

func TestAnalysisComparison(t *testing.T) {
	mk := func() *core.SweepResult {
		p := jarzynski.ParamPoint{KappaPaper: 10, VPaper: 25, Grid: []float64{0, 1}, PMF: []float64{0, 0.5}, SigmaStat: 0.1, Samples: 4}
		return &core.SweepResult{Points: []jarzynski.ParamPoint{p}, Grid: []float64{0, 1}, Reference: []float64{0, 0.4}, Best: p}
	}
	a, b := mk(), mk()
	if !sameAnalysis(a, b) {
		t.Fatal("identical analyses compared unequal")
	}
	b.Points[0].PMF[1] = math.Nextafter(0.5, 1)
	if sameAnalysis(a, b) {
		t.Error("a PMF one ulp off compared equal")
	}
	b = mk()
	b.Best.VPaper = 50
	if sameAnalysis(a, b) {
		t.Error("a different optimum compared equal")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %s self = %d, want %d", s.Name, s.Self, want[s.ID])
		}
	}
}

func TestIdleGapsAndFirstPull(t *testing.T) {
	pulls := []span{
		{Attr: "w0", Start: 0, End: 10e6},
		{Attr: "w0", Start: 30e6, End: 40e6},
		{Attr: "w1", Start: 5e6, End: 50e6},
		{Attr: "w1", Start: 45e6, End: 60e6}, // overlapping: no gap
		{Start: 0, End: 1e9},                 // no worker: skipped
	}
	if got := idleGaps(pulls); math.Abs(got-0.020) > 1e-12 {
		t.Errorf("idle = %g s, want 0.020", got)
	}
	if got := firstPullAfter(pulls[:3], -2e6); got != 2 {
		t.Errorf("first pull after = %g ms, want 2", got)
	}
	if got := firstPullAfter(nil, 0); got != -1 {
		t.Errorf("first pull of nothing = %g, want -1", got)
	}
}

func TestResultLineNeedsEveryMetric(t *testing.T) {
	out := &outcome{attempted: 3, failed: 1, values: map[string]float64{"a": 1.5}}
	if _, err := resultLine(out, []metricDef{{"a", "s"}, {"b", "ms"}}); err == nil {
		t.Error("a missing metric was not reported")
	}
	line, err := resultLine(out, []metricDef{{"a", "s"}})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 3 || got.Failed != 1 || got.Metrics["a"].Value != 1.5 || got.Metrics["a"].Unit != "s" {
		t.Errorf("result line %s", line)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var programs []string
	for name := range workloads {
		programs = append(programs, name)
	}
	sort.Strings(names)
	sort.Strings(programs)
	if !reflect.DeepEqual(names, programs) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, programs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end-to-end metrics differ:\n json    %v\n program %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\n json    %v\n program %v", b.PerLayer, perLayer)
	}
}

func TestFinishLogNotesOnlyFinished(t *testing.T) {
	l := &finishLog{at: map[string]time.Time{}}
	log := obs.NewEventLog(l, 1)
	log.Emit(obs.Event{Name: "cp_started", Campaign: "a"})
	if _, ok := l.get("a"); ok {
		t.Fatal("a started campaign was noted as finished")
	}
	before := time.Now()
	log.Emit(obs.Event{Name: "cp_finished", Campaign: "a", Fields: map[string]any{"state": "done"}})
	if at, ok := l.get("a"); !ok || at.Before(before) {
		t.Errorf("finished campaign noted at %v (%t), want after %v", at, ok, before)
	}
}

// TestTimeSetupsBatchesCheapSetUps checks that set-ups far cheaper than
// setupBatch are timed in batches, that every round is reported per
// rig, and that every rig built is stopped.
func TestTimeSetupsBatchesCheapSetUps(t *testing.T) {
	built, stopped := map[int]bool{}, 0
	times, err := timeSetups(func(n int) (func() error, error) {
		if built[n] {
			t.Fatalf("rig %d built twice", n)
		}
		built[n] = true
		return func() error { stopped++; return nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < minSetups || len(times) > maxSetups {
		t.Errorf("%d rounds, want %d..%d", len(times), minSetups, maxSetups)
	}
	if stopped != len(built) {
		t.Errorf("%d rigs built, %d stopped", len(built), stopped)
	}
	if len(built) < 2*len(times) {
		t.Errorf("%d rigs over %d rounds: cheap set-ups were not batched", len(built), len(times))
	}
	for _, s := range times {
		if s <= 0 || s >= setupBatch.Seconds() {
			t.Fatalf("per-rig set-up %g s, want in (0, %v)", s, setupBatch)
		}
	}
}
