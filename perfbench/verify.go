package main

import (
	"math"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/jarzynski"
	"spice/internal/trace"
)

// pullMismatches counts the pulls of spec whose work log in got is not
// bit-identical to the one in want, a missing log counting as a
// mismatch. Every runner must reproduce campaign.LocalRunner exactly,
// so one flipped bit in one sample is a failed pull.
func pullMismatches(spec campaign.Spec, got, want map[campaign.Combo][]*trace.WorkLog) int {
	bad := 0
	for _, c := range spec.Combos() {
		g, w := got[c], want[c]
		for i := 0; i < spec.SamplesFor(c); i++ {
			if i >= len(g) || i >= len(w) || !sameLog(g[i], w[i]) {
				bad++
			}
		}
	}
	return bad
}

func sameLog(a, b *trace.WorkLog) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !sameBits(a.Kappa, b.Kappa) || !sameBits(a.Velocity, b.Velocity) || a.Seed != b.Seed || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i, s := range a.Samples {
		t := b.Samples[i]
		if !sameBits(s.Lambda, t.Lambda) || !sameBits(s.Z, t.Z) || !sameBits(s.Work, t.Work) {
			return false
		}
	}
	return true
}

// sameAnalysis reports whether two sweep results carry bit-identical
// merged PMFs, errors, reference profile and optimum.
func sameAnalysis(a, b *core.SweepResult) bool {
	if len(a.Points) != len(b.Points) || !sameSlice(a.Grid, b.Grid) || !sameSlice(a.Reference, b.Reference) {
		return false
	}
	for i := range a.Points {
		if !samePoint(a.Points[i], b.Points[i]) {
			return false
		}
	}
	return samePoint(a.Best, b.Best)
}

func samePoint(a, b jarzynski.ParamPoint) bool {
	return sameBits(a.KappaPaper, b.KappaPaper) && sameBits(a.VPaper, b.VPaper) &&
		sameSlice(a.Grid, b.Grid) && sameSlice(a.PMF, b.PMF) &&
		sameBits(a.SigmaStat, b.SigmaStat) && sameBits(a.SigmaSys, b.SigmaSys) && a.Samples == b.Samples
}

func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
