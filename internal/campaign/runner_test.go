package campaign

import (
	"sync"
	"testing"

	"spice/internal/md"
	"spice/internal/neighbor"
	"spice/internal/smd"
	"spice/internal/trace"
	"spice/internal/vec"
)

// walledBuildIn is smallBuild on a substrate-eligible system: explicit
// pore walls in a fully periodic box, so a run's pulls can share one
// static neighbor grid.
func walledBuildIn(box vec.V) BuildFunc {
	return func(c Combo, seed uint64) (*md.Engine, []int, error) {
		spec := md.DefaultTranslocation(3)
		spec.Seed = seed
		spec.DT = 0.02
		spec.NoWalls = false
		spec.Workers = 1
		spec.Box = box
		ts, err := md.BuildTranslocation(spec)
		if err != nil {
			return nil, nil, err
		}
		return ts.Engine, ts.DNA[:1], nil
	}
}

// plainRun is the reference every runner must reproduce: each task run
// one after another on its own engine through ExecutePull, with no
// substrate sharing and no worker pool.
func plainRun(t *testing.T, spec Spec, build BuildFunc) map[Combo][]*trace.WorkLog {
	t.Helper()
	tasks := spec.Tasks()
	logs := make([]*trace.WorkLog, len(tasks))
	for i, task := range tasks {
		var err error
		if logs[i], err = ExecutePull(spec, task, build, smd.RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	return Collate(tasks, logs)
}

func requireLogsEqual(t *testing.T, seq, bat map[Combo][]*trace.WorkLog) {
	t.Helper()
	if len(seq) != len(bat) {
		t.Fatalf("combo counts differ: %d vs %d", len(seq), len(bat))
	}
	for combo, sl := range seq {
		bl, ok := bat[combo]
		if !ok || len(bl) != len(sl) {
			t.Fatalf("combo %s: %d sequential logs, %d batched", combo, len(sl), len(bl))
		}
		for r := range sl {
			a, b := sl[r], bl[r]
			if a.Kappa != b.Kappa || a.Velocity != b.Velocity || a.Seed != b.Seed {
				t.Fatalf("combo %s replica %d: header mismatch", combo, r)
			}
			if len(a.Samples) != len(b.Samples) {
				t.Fatalf("combo %s replica %d: %d vs %d samples", combo, r, len(a.Samples), len(b.Samples))
			}
			for k := range a.Samples {
				if a.Samples[k] != b.Samples[k] {
					t.Fatalf("combo %s replica %d sample %d diverged: %+v vs %+v",
						combo, r, k, a.Samples[k], b.Samples[k])
				}
			}
		}
	}
}

// TestBatchedRunnerBitIdentical: LocalRunner's pooled, substrate-sharing
// execution must produce work logs bit-identical to running every pull
// alone on a plain engine — the campaign analog of the md-layer
// trajectory identity proof. Pulls differ 4x in length (v = 100..400
// Å/ns), and 7 tasks leave the 2- and 4-worker pools unevenly loaded.
// Every pull of a walled system must share the run's one grid; an
// engine whose system is ineligible or does not match that grid must
// stay on the plain path.
func TestBatchedRunnerBitIdentical(t *testing.T) {
	spec := Spec{
		Kappas:     []float64{100},
		Velocities: []float64{100, 200, 400},
		Replicas:   1,
		Distance:   3,
		Seed:       42,
	}
	tasks := len(spec.Tasks())
	if tasks != 7 {
		t.Fatalf("%d tasks, want 7", tasks)
	}
	walled := walledBuildIn(vec.V{X: 100, Y: 100, Z: 170})
	mixed := func(c Combo, seed uint64) (*md.Engine, []int, error) {
		switch c.VAns {
		case 100:
			return walled(c, seed)
		case 200:
			return walledBuildIn(vec.V{X: 100, Y: 100, Z: 180})(c, seed)
		default:
			return smallBuild(c, seed)
		}
	}
	cases := []struct {
		name    string
		build   BuildFunc
		workers []int
		shares  func(vAns float64) bool // must the pull at vAns attach the grid?
	}{
		{"walled", walled, []int{1, 2, 4}, func(float64) bool { return true }},
		// Open box and no fixed beads: ineligible, so nothing attaches.
		{"no-walls", smallBuild, []int{1, 4}, func(float64) bool { return false }},
		// The slowest pull, built first on the only worker, fixes the
		// grid; the other velocities build another periodic box and an
		// open wall-less system, neither of which matches it.
		{"mismatched-systems", mixed, []int{1}, func(v float64) bool { return v == 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := plainRun(t, spec, tc.build)
			for _, workers := range tc.workers {
				var mu sync.Mutex
				built := make(map[*md.Engine]float64)
				build := func(c Combo, seed uint64) (*md.Engine, []int, error) {
					eng, atoms, err := tc.build(c, seed)
					if err == nil {
						mu.Lock()
						built[eng] = c.VAns
						mu.Unlock()
					}
					return eng, atoms, err
				}
				got, err := (&LocalRunner{Build: build, Workers: workers}).Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				requireLogsEqual(t, want, got)
				if len(built) != tasks {
					t.Fatalf("workers=%d: %d engines built, want %d", workers, len(built), tasks)
				}
				var grid *neighbor.StaticGrid
				for eng, v := range built {
					sg := eng.Substrate()
					if (sg != nil) != tc.shares(v) {
						t.Fatalf("workers=%d v=%g: substrate attached = %v, want %v", workers, v, sg != nil, tc.shares(v))
					}
					if grid == nil {
						grid = sg
					}
					if sg != nil && sg != grid {
						t.Fatalf("workers=%d v=%g: pulls attached to different substrate grids", workers, v)
					}
				}
			}
		})
	}
}
