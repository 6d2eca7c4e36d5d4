package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spice/internal/analysis"
	"spice/internal/campaign"
	"spice/internal/controlplane"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

const (
	// streamRate is the offered load, campaigns per second over both
	// tenants: well below what two workers can pull, so latency, not a
	// growing backlog, is what the workload measures.
	streamRate = 20.0
	// streamLead delays the first due time past set-up, so the
	// generator does not start out late.
	streamLead = 20 * time.Millisecond
	// pollEvery is the read traffic's period. Each submitted campaign
	// is polled with Get at this period until it ends, then its Result
	// is fetched: what `spice -server -submit -wait` does through
	// controlplane.Client.WaitDone (cmd/spice/client.go). Each tenant
	// also lists its campaigns at the same period, as a `spice -server
	// -status` view kept refreshing would.
	pollEvery = 250 * time.Millisecond
	// drainTimeout bounds the wait for outstanding campaigns after the
	// last arrival; a campaign not done by then counts as failed.
	drainTimeout = 30 * time.Second
)

var tenants = [...]string{"alice", "bob"}

// streamSystem is the small 3-bead system campaign-stream pulls on:
// the md work is tiny, so the control plane, leases and journals
// dominate each campaign's latency.
func streamSystem() core.SystemConfig {
	return core.SystemConfig{Beads: 3, StartZ: 5, EquilSteps: 50, DT: 0.02, Temp: 300, PoreFriction: 1, EngineWorkers: 1}
}

// arrival is one scheduled campaign submission.
type arrival struct {
	due  time.Duration // offset from the start of the stream
	tag  dist.CampaignTag
	spec campaign.Spec
}

// streamSchedule generates the open-loop stream for window: Poisson
// arrivals at streamRate, each a 4-pull campaign from a random tenant
// with its own κ, v and seed.
func streamSchedule(seed uint64, window time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(splitmix64(seed), seed))
	dues := openLoop(rng, streamRate, window)
	out := make([]arrival, len(dues))
	for i, due := range dues {
		out[i] = arrival{
			due: streamLead + due,
			tag: dist.CampaignTag{Tenant: tenants[rng.IntN(len(tenants))], Name: fmt.Sprintf("c%d", i)},
			spec: campaign.Spec{
				Kappas:       []float64{[]float64{100, 300}[rng.IntN(2)]},
				Velocities:   []float64{[]float64{800, 1600}[rng.IntN(2)]},
				Replicas:     4,
				EqualSamples: true,
				Distance:     3,
				Seed:         rng.Uint64(),
			},
		}
	}
	return out
}

// streamRig is a control plane over a dist coordinator with a loopback
// fleet, serving its HTTP API, and the client the load talks through.
type streamRig struct {
	fleet     *fleet
	cp        *controlplane.Server
	srv       *obs.Server
	client    *controlplane.Client
	transport *http.Transport
	finished  *finishLog
	dir       string // state directory of both journals
}

// newStreamRig builds the service with both journals on. Set-up ends
// when the fleet has connected and the control plane reports Ready.
func newStreamRig(dir string, tr *tracer) (*streamRig, error) {
	system, err := json.Marshal(streamSystem())
	if err != nil {
		return nil, err
	}
	f, err := newFleet(filepath.Join(dir, "co"), system, tr)
	if err != nil {
		return nil, err
	}
	r := &streamRig{fleet: f, finished: &finishLog{at: map[string]time.Time{}}, dir: dir}
	if r.cp, err = controlplane.New(controlplane.Config{
		Coordinator: f.co,
		StateDir:    filepath.Join(dir, "cp"),
		FS:          tr.wrapFS(layerQueue),
		Events:      obs.NewEventLog(r.finished, 1),
	}); err != nil {
		f.stop()
		return nil, err
	}
	mux := http.NewServeMux()
	r.cp.Mount(mux)
	if r.srv, err = obs.ServeHandler("127.0.0.1:0", mux); err != nil {
		r.stop()
		return nil, err
	}
	if err := f.start(tr); err != nil {
		r.stop()
		return nil, err
	}
	r.cp.Start()
	if err := r.cp.Ready(); err != nil {
		r.stop()
		return nil, err
	}
	r.transport = &http.Transport{MaxIdleConnsPerHost: 32}
	r.client = &controlplane.Client{Base: r.srv.Addr(), HTTP: &http.Client{Transport: r.transport}}
	return r, nil
}

// stop shuts the service down and deletes its state directory, like
// sweepRig.stop.
func (r *streamRig) stop() error {
	var err error
	if r.cp != nil {
		err = r.cp.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if ferr := r.fleet.stop(); ferr != nil && err == nil {
		err = ferr
	}
	if r.transport != nil {
		r.transport.CloseIdleConnections()
	}
	return errors.Join(err, os.RemoveAll(r.dir))
}

// finishLog is the io.Writer behind the control plane's event log. It
// notes when each campaign's cp_finished event arrives: the control
// plane emits it once the campaign's terminal record is journaled, just
// before the result becomes readable. The log calls it under its own
// lock, one JSON line per call.
type finishLog struct {
	mu sync.Mutex
	at map[string]time.Time
}

var finishedMark = []byte(`"event":"cp_finished"`)

func (l *finishLog) Write(p []byte) (int, error) {
	if !bytes.Contains(p, finishedMark) {
		return len(p), nil
	}
	now := time.Now()
	var ev struct {
		Campaign string `json:"campaign"`
	}
	if json.Unmarshal(p, &ev) == nil {
		l.mu.Lock()
		l.at[ev.Campaign] = now
		l.mu.Unlock()
	}
	return len(p), nil
}

func (l *finishLog) get(id string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[id]
	return t, ok
}

// streamPart is what one measured stream produced.
type streamPart struct {
	latencyMs []float64 // due time to result in hand, per completed campaign
	lateMs    []float64
	failed    int
	campaigns int
	pulls     int
	cpu       time.Duration
	alloc     allocs
	rssMB     float64
	results   []map[campaign.Combo][]*trace.WorkLog // per arrival; nil when it never completed
	views     []controlplane.Campaign
	co        dist.Stats
	workers   dist.WorkerStats
	windowS   float64
}

// driveStream offers sched to the rig. One goroutine submits each
// campaign over HTTP when it is due and hands it to a waiter of its own,
// which polls it with Get every pollEvery and fetches its Result once it
// is done; one more goroutine lists each tenant's campaigns every
// pollEvery. A campaign's time to result is its due time to the control
// plane's cp_finished event, plus the Result fetch: the polling period
// sets the read load but adds nothing to the figure.
func driveStream(rig *streamRig, sched []arrival, tr *tracer) (*streamPart, error) {
	p := &streamPart{campaigns: len(sched), results: make([]map[campaign.Combo][]*trace.WorkLog, len(sched))}
	sent := make([]time.Duration, len(sched))
	spanIDs := make([]int64, len(sched))
	latency := make([]float64, len(sched))

	a0, cpu0 := readAllocs(), cpuTime()
	start := time.Now()
	// A campaign not done drainTimeout after the last due time is
	// abandoned and counts as failed.
	last := time.Duration(0)
	if len(sched) > 0 {
		last = sched[len(sched)-1].due
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(last+drainTimeout))
	defer cancel()

	// wait is one waiting client: it polls campaign i until it ends and
	// fetches the result of a done one.
	wait := func(i int, id string) {
		poll := time.NewTicker(pollEvery)
		defer poll.Stop()
		for {
			var c controlplane.Campaign
			err := tr.timed(spanGet, id, "", spanIDs[i], func() (err error) {
				c, err = rig.client.Get(ctx, id)
				return err
			})
			switch {
			case err != nil:
				// A failed read is retried on the next poll.
			case c.State == controlplane.StateDone:
				var logs map[campaign.Combo][]*trace.WorkLog
				fetch := time.Now()
				if err := tr.timed(spanResult, id, "", spanIDs[i], func() (err error) {
					logs, err = rig.client.Result(ctx, id)
					return err
				}); err != nil {
					break // retried on the next poll
				}
				inHand := time.Now()
				finished, ok := rig.finished.get(id)
				if !ok {
					return
				}
				due := start.Add(sched[i].due)
				latency[i] = ms(finished.Sub(due) + inHand.Sub(fetch))
				p.results[i] = logs
				if tr != nil {
					tr.add(span{ID: spanIDs[i], Name: spanCampaign, Campaign: id, Attr: sched[i].tag.Tenant,
						Start: tr.at(due), End: tr.at(inHand)})
				}
				return
			case c.State == controlplane.StateFailed, c.State == controlplane.StateCanceled:
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-poll.C:
			}
		}
	}

	var waiters sync.WaitGroup
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i, a := range sched {
			if d := time.Until(start.Add(a.due)); d > 0 {
				time.Sleep(d)
			}
			sent[i] = time.Since(start)
			key, err := dist.SpecKey(a.spec, a.tag)
			if err == nil {
				spanIDs[i] = tr.beginCampaign(key, a.spec)
				var id string
				err = tr.timed(spanSubmit, key, a.tag.Tenant, spanIDs[i], func() (err error) {
					id, err = rig.client.Submit(ctx, a.spec, a.tag)
					return err
				})
				if err == nil && id != key {
					err = fmt.Errorf("campaign ID %s is not its dist key %s", id, key)
				}
			}
			if err != nil {
				continue // never accepted: counted as failed below
			}
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				wait(i, key)
			}()
		}
	}()

	listDone := make(chan struct{})
	var lister sync.WaitGroup
	lister.Add(1)
	go func() {
		defer lister.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-listDone:
				return
			case <-tick.C:
			}
			for _, tenant := range tenants {
				// A failed listing is simply made again next period.
				_ = tr.timed(spanList, "", tenant, 0, func() error {
					_, err := rig.client.List(ctx, tenant)
					return err
				})
			}
		}
	}()

	<-submitted
	waiters.Wait()
	close(listDone)
	lister.Wait()
	var err error
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	p.windowS = time.Since(start).Seconds()
	p.cpu = cpuTime() - cpu0
	p.alloc = readAllocs().since(a0)
	p.lateMs = lateness(dues(sched), sent)
	p.failed = len(sched)
	for i := range sched {
		p.pulls += len(sched[i].spec.Tasks())
		if p.results[i] != nil {
			p.latencyMs = append(p.latencyMs, latency[i])
			p.failed--
		}
	}
	for _, t := range tenants {
		p.views = append(p.views, rig.cp.List(t)...)
	}
	p.co = rig.fleet.co.Stats()
	p.workers = rig.fleet.workerStats()
	return p, nil
}

func dues(sched []arrival) []time.Duration {
	out := make([]time.Duration, len(sched))
	for i, a := range sched {
		out[i] = a.due
	}
	return out
}

// verifyStream counts the completed campaigns whose logs differ from an
// untimed in-process campaign.LocalRunner run of the same spec.
func verifyStream(sched []arrival, results []map[campaign.Combo][]*trace.WorkLog) (int, error) {
	sys := streamSystem()
	lr := &campaign.LocalRunner{
		Build:   func(_ campaign.Combo, seed uint64) (*md.Engine, []int, error) { return sys.Build(seed) },
		Workers: fleetSize,
	}
	bad := 0
	for i, got := range results {
		if got == nil {
			continue
		}
		want, err := lr.Run(sched[i].spec)
		if err != nil {
			return 0, fmt.Errorf("reference campaign %d: %w", i, err)
		}
		if pullMismatches(sched[i].spec, got, want) > 0 {
			bad++
		}
	}
	return bad, nil
}

// measureStream runs one stream on a fresh rig and verifies it.
func measureStream(o options, sched []arrival, tr *tracer, name string) (*streamPart, error) {
	rig, err := newStreamRig(filepath.Join(o.dir, name), tr)
	if err != nil {
		return nil, err
	}
	p, err := driveStream(rig, sched, tr)
	if err != nil {
		rig.stop()
		return nil, err
	}
	if err := rig.stop(); err != nil {
		return nil, fmt.Errorf("stopping the control plane: %w", err)
	}
	tr.collectEngines()
	bad, err := verifyStream(sched, p.results)
	if err != nil {
		return nil, err
	}
	p.failed += bad
	return p, nil
}

// runStream runs the campaign-stream workload.
func runStream(o options) (*outcome, error) {
	setups, err := timeSetups(func(i int) (func() error, error) {
		rig, err := newStreamRig(filepath.Join(o.dir, fmt.Sprintf("setup-%d", i)), nil)
		if err != nil {
			return nil, err
		}
		return rig.stop, nil
	})
	if err != nil {
		return nil, err
	}
	if !o.trace {
		sched := streamSchedule(o.seed, o.window)
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := measureStream(o, sched, nil, "stream")
		if err != nil {
			return nil, err
		}
		return &outcome{
			attempted: p.campaigns,
			failed:    p.failed,
			values: map[string]float64{
				"setup_s":               analysis.Median(setups),
				"time_to_result_p50_ms": analysis.Median(p.latencyMs),
				"time_to_result_p90_ms": quantile(p.latencyMs, 0.9),
				"cpu_ms_per_pull":       ms(p.cpu) / float64(p.pulls),
				"peak_rss_mb":           p.rssMB,
			},
		}, nil
	}

	// Trace mode offers the same half-length stream twice, untraced and
	// then traced, each on a fresh service.
	sched := streamSchedule(o.seed, o.window/2)
	base, err := measureStream(o, sched, nil, "stream-untraced")
	if err != nil {
		return nil, err
	}
	tr := newTracer(false)
	traced, err := measureStream(o, sched, tr, "stream-traced")
	if err != nil {
		return nil, err
	}
	in := layerInput{
		results:       traced.campaigns,
		pulls:         traced.pulls,
		co:            traced.co,
		workers:       traced.workers,
		assignments:   traced.co.Assignments,
		busyWindowS:   traced.windowS,
		campaigns:     traced.campaigns,
		lateMs:        traced.lateMs,
		untraced:      base.alloc,
		untracedPulls: base.pulls,
		overheadPct:   100 * (analysis.Median(traced.latencyMs) - analysis.Median(base.latencyMs)) / analysis.Median(base.latencyMs),
	}
	streamSpans(tr, traced, &in)
	if err := tr.dump(filepath.Join(o.dir, spansFile)); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: base.campaigns + traced.campaigns,
		failed:    base.failed + traced.failed,
		values:    layerValues(tr, in),
	}, nil
}

// streamSpans derives the stream-shaped layer inputs: per-campaign
// first lease (Submit returned to first pull), idle gaps across the
// whole stream, and the control plane's own queue and run times.
func streamSpans(tr *tracer, p *streamPart, in *layerInput) {
	kids := childrenOf(tr.selected(func(s span) bool { return s.Name == spanPull || s.Name == spanSubmit }))
	var firstLease []float64
	for _, c := range tr.named(spanCampaign) {
		var pulls []span
		submitEnd := int64(-1)
		for _, k := range kids[c.ID] {
			if k.Name == spanSubmit {
				submitEnd = k.End
			} else {
				pulls = append(pulls, k)
			}
		}
		if f := firstPullAfter(pulls, submitEnd); submitEnd >= 0 && f >= 0 {
			firstLease = append(firstLease, f)
		}
	}
	in.firstLeaseMs = analysis.Median(firstLease)
	in.idleWaitS = ratio(idleGaps(tr.named(spanPull)), float64(p.campaigns))
	for _, v := range p.views {
		if v.State != controlplane.StateDone {
			continue
		}
		in.queueWaitMs = append(in.queueWaitMs, ms(v.Started.Sub(v.Submitted)))
		in.runMs = append(in.runMs, ms(v.Finished.Sub(v.Started)))
	}
}
