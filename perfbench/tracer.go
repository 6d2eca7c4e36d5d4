package main

// Outside-in tracing. Every span is recorded by the benchmark's own
// wrappers around calls into the program's public functions and seams:
// campaign.Runner.Run, the BuildFunc, the faultfs.FS under both
// journals, the net.Conn on both ends of every dist connection (WrapConn
// and Dial), the control-plane Client calls, and pull intervals taken
// from the job_started/job_done event stream. Nothing inside the program
// is changed. Spans stay in memory and are written out when the run
// ends, each with its self time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spice/internal/campaign"
	"spice/internal/dist"
	"spice/internal/faultfs"
	"spice/internal/md"
	"spice/internal/obs"
	"spice/internal/trace"
)

// spansFile is the span dump's name inside the run's scratch directory.
const spansFile = "spans.jsonl"

// Span names.
const (
	spanSweep    = "core.run_sweep" // one core.RunSweep call
	spanRun      = "campaign.run"   // one Runner.Run call
	spanCampaign = "campaign"       // one stream campaign, due time to result in hand
	spanBuild    = "md.build"       // one BuildFunc call (build + equilibration)
	spanPull     = "smd.pull"       // one pull, job_started to job_done
	spanWrite    = "conn.write"     // one net.Conn Write
	spanRead     = "conn.read"      // one net.Conn Read (includes waiting for the peer)
	spanFsync    = "fs.fsync"       // File.Sync or FS.SyncDir
	spanFSWrite  = "fs.write"       // File.Write
	spanFSOther  = "fs.op"          // any other FS operation
	spanSubmit   = "client.submit"  // controlplane.Client calls
	spanList     = "client.list"
	spanGet      = "client.get"
	spanResult   = "client.result"
)

const (
	// stepEvery is the md step sampling stride, as spice_md_step_seconds.
	stepEvery = 64
	// jobSep splits dist job IDs: <campaign key>.smdje-<combo>-r<i>.
	jobSep = ".smdje-"
	// Layers of the faultfs wrappers, and the file kinds they write.
	layerJournal = "journal" // dist write-ahead journal and checkpoint spool
	layerQueue   = "queue"   // control-plane queue journal
	fileSpool    = "spool"
	fileJournal  = "journal.log"
	// Sides of a dist connection.
	sideCoord  = "coordinator"
	sideWorker = "worker"
)

type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Campaign string `json:"campaign,omitempty"`
	Attr     string `json:"attr,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// engineRec follows one built engine until its pull has finished.
type engineRec struct {
	eng      *md.Engine
	step0    int64 // State().Step right after the build (equilibration done)
	start    int64 // build end: stepping the pull starts after this
	last     atomic.Int64
	parent   int64
	campaign string
}

// tracer keeps every span of one traced run in memory. A nil *tracer
// is valid and wraps nothing, so untraced runs share the same code.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	nextID    int64
	run       int64             // enclosing Runner.Run span (sweeps)
	runKey    string            // its campaign key
	campaigns map[string]int64  // dist campaign key -> campaign span (stream)
	seeds     map[uint64]string // pull seed -> campaign key (stream)
	open      map[string]int64  // worker, job -> start of a pull in flight
	engines   []*engineRec
	pullSteps int64

	stepMu   sync.Mutex
	stepUs   []float64 // sampled step durations
	rebuilds atomic.Int64
	pairs    atomic.Int64

	derivePulls bool          // the runner emits no job events: pull spans come from engines
	log         *obs.EventLog // job event stream feeding eventSink
}

func newTracer(derivePulls bool) *tracer {
	return &tracer{
		t0:          time.Now(),
		spans:       make([]span, 0, 1<<16),
		campaigns:   map[string]int64{},
		seeds:       map[uint64]string{},
		open:        map[string]int64{},
		derivePulls: derivePulls,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records fn as a span and returns its error.
func (t *tracer) timed(name, campaign, attr string, parent int64, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := t.now()
	err := fn()
	t.add(span{Parent: parent, Name: name, Campaign: campaign, Attr: attr, Start: start, End: t.now()})
	return err
}

// beginCampaign registers a campaign under its dist key, so its pulls
// (by job ID) and builds (by seed) find it. The returned span ID is the
// parent of everything recorded for the campaign.
func (t *tracer) beginCampaign(key string, spec campaign.Spec) int64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.mu.Lock()
	t.campaigns[key] = id
	for _, task := range spec.Tasks() {
		t.seeds[task.Seed] = key
	}
	t.mu.Unlock()
	return id
}

// parentOf resolves the campaign key and parent span of work in the
// campaign with key; work no campaign claims belongs to the enclosing
// Runner.Run (dist.LocalRunner job IDs carry no key).
func (t *tracer) parentOf(key string) (string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.campaigns[key]; ok {
		return key, id
	}
	return t.runKey, t.run
}

func (t *tracer) keyOfSeed(seed uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seeds[seed]
}

// --- campaign.Runner ---

type tracedRunner struct {
	inner campaign.Runner
	t     *tracer
}

// wrapRunner records every Runner.Run call as a span whose children
// are the pulls and builds it causes, all carrying the campaign key the
// dist coordinator gives an untagged run of the same spec.
func (t *tracer) wrapRunner(r campaign.Runner) campaign.Runner {
	if t == nil {
		return r
	}
	return &tracedRunner{r, t}
}

func (r *tracedRunner) Run(spec campaign.Spec) (map[campaign.Combo][]*trace.WorkLog, error) {
	t := r.t
	key, err := dist.SpecKey(spec, dist.CampaignTag{})
	if err != nil {
		return nil, err
	}
	id := t.beginCampaign(key, spec)
	t.mu.Lock()
	parent := t.run
	t.run, t.runKey = id, key
	t.mu.Unlock()
	start := t.now()
	logs, err := r.inner.Run(spec)
	t.mu.Lock()
	t.run, t.runKey = parent, ""
	t.mu.Unlock()
	t.add(span{ID: id, Parent: parent, Name: spanRun, Campaign: key, Start: start, End: t.now()})
	return logs, err
}

// enter makes id the enclosing span of the next Runner.Run calls.
func (t *tracer) enter(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = id
	t.mu.Unlock()
}

// --- BuildFunc and the md engine ---

type buildFunc = func(c campaign.Combo, seed uint64) (*md.Engine, []int, error)

// wrapBuild times every build and installs the sampled step observer
// (1 in 64 steps, like spice_md_step_seconds but keeping each exact
// duration) and the neighbor-rebuild observer on the engine it returns.
func (t *tracer) wrapBuild(build buildFunc) buildFunc {
	if t == nil {
		return build
	}
	return func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		camp, parent := t.parentOf(t.keyOfSeed(seed))
		start := t.now()
		eng, atoms, err := build(c, seed)
		end := t.now()
		t.add(span{Parent: parent, Name: spanBuild, Campaign: camp, Start: start, End: end})
		if err != nil {
			return eng, atoms, err
		}
		rec := &engineRec{eng: eng, step0: eng.State().Step, start: end, parent: parent, campaign: camp}
		rec.last.Store(-1)
		eng.SetStepObserver(stepEvery, func(d time.Duration) {
			t.stepMu.Lock()
			t.stepUs = append(t.stepUs, float64(d)*1e-3)
			t.stepMu.Unlock()
			rec.last.Store(t.now())
		})
		eng.SetNeighborObserver(func(pairs int) {
			t.rebuilds.Add(1)
			t.pairs.Add(int64(pairs))
		})
		t.mu.Lock()
		t.engines = append(t.engines, rec)
		t.mu.Unlock()
		return eng, atoms, nil
	}
}

// collectEngines reads the exact step counts of every engine built
// since the last call and, for runners without job events, turns each
// engine's stepping interval into a pull span. Call it only after every
// goroutine stepping those engines has been joined.
func (t *tracer) collectEngines() {
	if t == nil {
		return
	}
	t.mu.Lock()
	recs := t.engines
	t.engines = nil
	t.mu.Unlock()
	for _, r := range recs {
		steps := r.eng.State().Step - r.step0
		t.mu.Lock()
		t.pullSteps += steps
		t.mu.Unlock()
		if last := r.last.Load(); t.derivePulls && last != -1 {
			t.add(span{Parent: r.parent, Name: spanPull, Campaign: r.campaign, Start: r.start, End: last})
		}
	}
}

// --- job events ---

// eventSink is the io.Writer behind an obs.EventLog: it turns the
// job_started / job_done (or job_failed / job_abandoned) pair of each
// pull into a span. The log calls it under its own lock, one JSON line
// per call.
type eventSink struct{ t *tracer }

var jobEventMark = []byte(`"event":"job_`)

func (s eventSink) Write(p []byte) (int, error) {
	if !bytes.Contains(p, jobEventMark) {
		return len(p), nil
	}
	now := s.t.now()
	var ev struct {
		Name   string `json:"event"`
		Job    string `json:"job"`
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(p, &ev); err != nil {
		return len(p), nil // not ours to fail: observability never fails the campaign
	}
	s.t.jobEvent(ev.Name, ev.Job, ev.Worker, now)
	return len(p), nil
}

func (t *tracer) jobEvent(name, job, worker string, now int64) {
	pull := worker + "\x00" + job
	if name == "job_started" {
		t.mu.Lock()
		t.open[pull] = now
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	start, ok := t.open[pull]
	delete(t.open, pull)
	t.mu.Unlock()
	if !ok {
		return
	}
	key := "" // dist.LocalRunner job IDs carry no campaign key
	if i := strings.Index(job, jobSep); i > 0 {
		key = job[:i]
	}
	camp, parent := t.parentOf(key)
	t.add(span{Parent: parent, Name: spanPull, Campaign: camp, Attr: worker, Start: start, End: now})
}

// --- net.Conn ---

type timedConn struct {
	net.Conn
	t    *tracer
	side string
}

// wrapConn times every Read and Write on c.
func (t *tracer) wrapConn(c net.Conn, side string) net.Conn {
	if t == nil {
		return c
	}
	return &timedConn{c, t, side}
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.add(span{Name: spanWrite, Attr: c.side, Bytes: int64(n), Start: start, End: c.t.now()})
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	c.t.add(span{Name: spanRead, Attr: c.side, Bytes: int64(n), Start: start, End: c.t.now()})
	return n, err
}

// --- faultfs.FS ---

type timedFS struct {
	inner faultfs.FS
	t     *tracer
	layer string
}

type timedFile struct {
	inner faultfs.File
	fs    *timedFS
	attr  string
}

// wrapFS times every operation the journals make on the OS filesystem.
// A nil tracer returns nil, which the program reads as the OS.
func (t *tracer) wrapFS(layer string) faultfs.FS {
	if t == nil {
		return nil
	}
	return &timedFS{faultfs.OS, t, layer}
}

func (f *timedFS) op(name string, fn func() error) error {
	return f.t.timed(name, "", f.layer, 0, fn)
}

func (f *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	var file faultfs.File
	err := f.op(spanFSOther, func() (err error) {
		file, err = f.inner.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	attr := filepath.Base(name)
	switch {
	case strings.Contains(name, string(filepath.Separator)+fileSpool+string(filepath.Separator)):
		attr = fileSpool
	case strings.HasPrefix(attr, "journal") || strings.HasPrefix(attr, "snapshot"):
		attr = fileJournal
	}
	return &timedFile{file, f, attr}, nil
}

func (f *timedFS) Rename(o, n string) error {
	return f.op(spanFSOther, func() error { return f.inner.Rename(o, n) })
}
func (f *timedFS) Remove(name string) error {
	return f.op(spanFSOther, func() error { return f.inner.Remove(name) })
}
func (f *timedFS) Truncate(name string, size int64) error {
	return f.op(spanFSOther, func() error { return f.inner.Truncate(name, size) })
}
func (f *timedFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.op(spanFSOther, func() error { return f.inner.MkdirAll(path, perm) })
}
func (f *timedFS) ReadFile(name string) (b []byte, err error) {
	err = f.op(spanFSOther, func() error { b, err = f.inner.ReadFile(name); return err })
	return b, err
}
func (f *timedFS) ReadDir(name string) (d []fs.DirEntry, err error) {
	err = f.op(spanFSOther, func() error { d, err = f.inner.ReadDir(name); return err })
	return d, err
}
func (f *timedFS) SyncDir(name string) error {
	return f.op(spanFsync, func() error { return f.inner.SyncDir(name) })
}

func (w *timedFile) Write(p []byte) (int, error) {
	t := w.fs.t
	start := t.now()
	n, err := w.inner.Write(p)
	t.add(span{Name: spanFSWrite, Attr: w.fs.layer + "/" + w.attr, Bytes: int64(n), Start: start, End: t.now()})
	return n, err
}
func (w *timedFile) Sync() error { return w.fs.op(spanFsync, w.inner.Sync) }
func (w *timedFile) Truncate(size int64) error {
	return w.fs.op(spanFSOther, func() error { return w.inner.Truncate(size) })
}
func (w *timedFile) Close() error { return w.fs.op(spanFSOther, w.inner.Close) }

// --- queries and the dump ---

// selected returns a copy of the spans matching keep.
func (t *tracer) selected(keep func(span) bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) named(name string) []span {
	return t.selected(func(s span) bool { return s.Name == name })
}

// durations returns the durations of spans in the given unit (ns per unit).
func durations(spans []span, scale float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) * scale
	}
	return out
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval covered by its children (overlapping children, like
// concurrent pulls, are counted once).
func selfTimes(spans []span) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := int64(0), int64(0), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// dump writes every span, with its self time, as JSON lines.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
