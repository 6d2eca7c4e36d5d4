package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spice/internal/campaign"
	"spice/internal/core"
	"spice/internal/dist"
	"spice/internal/md"
	"spice/internal/obs"
)

const (
	// fleetSize is the runner concurrency of every workload: LocalRunner
	// workers, or loopback dist workers of one slot each.
	fleetSize = 2
	// beatInterval scales the paper's hours-long pulls down to this
	// repository's sub-second ones, so checkpoints actually stream.
	beatInterval = 20 * time.Millisecond
	// connectTimeout bounds how long set-up waits for the fleet to dial.
	connectTimeout = 10 * time.Second
)

// events returns the obs.EventLog whose job events become pull spans,
// or nil (no event stream) when tracing is off.
func (t *tracer) events() *obs.EventLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		t.log = obs.NewEventLog(eventSink{t}, 1)
	}
	return t.log
}

// distBuild adapts core.BuildFromJSON, the build every spiced worker
// uses, through the tracer's build wrapper.
func distBuild(tr *tracer) dist.BuildFunc {
	return func(system json.RawMessage, c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
		return tr.wrapBuild(func(c campaign.Combo, seed uint64) (*md.Engine, []int, error) {
			return core.BuildFromJSON(system, c, seed)
		})(c, seed)
	}
}

// fleet is a dist coordinator on a loopback listener with fleetSize
// in-process workers, configured as production does (dist.Defaults)
// except for the heartbeat and the journal directory.
type fleet struct {
	ln      net.Listener
	co      *dist.Coordinator
	cfg     dist.Config
	workers []*dist.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// newFleet builds the coordinator. Its workers start with start, so a
// control plane can claim the coordinator's scheduler slot first.
func newFleet(stateDir string, system json.RawMessage, tr *tracer) (*fleet, error) {
	cfg := dist.Defaults()
	cfg.StateDir = stateDir
	cfg.BeatInterval = beatInterval
	cfg.FS = tr.wrapFS(layerJournal)
	cfg.Events = tr.events()
	if tr != nil {
		cfg.WrapConn = func(c net.Conn) net.Conn { return tr.wrapConn(c, sideCoord) }
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	co, err := dist.NewCoordinator(ln, system, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &fleet{ln: ln, co: co, cfg: cfg}, nil
}

// start launches the workers and returns once each has connected. A
// coordinator serves its first hello only when a campaign arrives, so
// "connected" means dialed; the handshake is part of the first campaign.
func (f *fleet) start(tr *tracer) error {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	dialed := make(chan struct{}, fleetSize)
	for i := 0; i < fleetSize; i++ {
		wcfg := f.cfg
		var once sync.Once
		wcfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			once.Do(func() { dialed <- struct{}{} })
			return tr.wrapConn(c, sideWorker), nil
		}
		w, err := dist.NewWorker(fmt.Sprintf("w%d", i), "", f.ln.Addr().String(), distBuild(tr), wcfg)
		if err != nil {
			return err
		}
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			// A worker's error after its context is cancelled is the
			// shutdown itself; a real failure shows up as a campaign
			// that does not finish.
			_ = w.Run(ctx)
		}()
	}
	timeout := time.NewTimer(connectTimeout)
	defer timeout.Stop()
	for i := 0; i < fleetSize; i++ {
		select {
		case <-dialed:
		case <-timeout.C:
			return errors.New("dist workers did not connect")
		}
	}
	return nil
}

// stop shuts the workers and the coordinator down and waits for every
// worker goroutine to return.
func (f *fleet) stop() error {
	if f.cancel != nil {
		f.cancel()
	}
	err := f.co.Close()
	// A coordinator that never served does not own its listener yet;
	// closing it also resets the workers' pending handshakes.
	f.ln.Close()
	f.wg.Wait()
	return err
}

// workerStats sums the worker-side checkpoint counters.
func (f *fleet) workerStats() dist.WorkerStats {
	var s dist.WorkerStats
	for _, w := range f.workers {
		addWorkerStats(&s, w.WorkerStats())
	}
	return s
}

func addWorkerStats(dst *dist.WorkerStats, s dist.WorkerStats) {
	dst.CheckpointsSent += s.CheckpointsSent
	dst.CheckpointBytes += s.CheckpointBytes
	dst.CheckpointRawBytes += s.CheckpointRawBytes
}

// addStats adds the scheduling and traffic counters the per-layer
// metrics read.
func addStats(dst *dist.Stats, s dist.Stats) {
	dst.Assignments += s.Assignments
	dst.WorkPolls += s.WorkPolls
	dst.Retries += s.Retries
	dst.SpeculationsWasted += s.SpeculationsWasted
	dst.BytesIn += s.BytesIn
	dst.BytesOut += s.BytesOut
}
