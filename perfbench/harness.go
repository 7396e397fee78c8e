package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"jungle/internal/core"
	"jungle/internal/trace"
)

// workload is one named benchmark scenario: a testbed, a closed loop of
// identical ops driven from the harness goroutine, and an output check.
type workload interface {
	// setup builds a fresh testbed and everything the first op needs,
	// logging its own set-up timings.
	setup(ctx context.Context, log *setupLog) error
	// testbed is the live testbed (valid between setup and teardown).
	testbed() *core.Testbed
	// batch runs the next ops: one op for the stateful workloads, one
	// campaign of members for the sweep. A non-nil error means the
	// workload's state is lost and no further op can run; the returned
	// samples still count.
	batch(ctx context.Context) (batchResult, error)
	// setTraced switches the workload's own traced instrumentation on
	// (non-nil taps) or off between phases. A workload that rebuilds its
	// testbed mid-phase moves the taps to the new one.
	setTraced(tp *taps)
	// check verifies the outputs of every op run since setup and returns
	// how many of the measured ops produced a wrong output.
	check(ctx context.Context, measured []sample) (wrong int, err error)
	// layerMetrics adds the workload's per-layer metrics, measured over
	// the traced phase.
	layerMetrics(ctx context.Context, m *metricSet, traced *phase) error
	// teardown stops everything setup started.
	teardown()
}

// batchResult is what one batch produced.
type batchResult struct {
	samples []sample
	// campaign marks a batch that is one whole sweep campaign, and
	// makespan is then its modelled makespan (Report.Makespan).
	campaign bool
	makespan time.Duration
	// off is work the batch did outside every op — rebuilding a testbed
	// whose leaks would otherwise grow without bound — which the phase's
	// wall time and process counters leave out.
	off offClock
}

// offClock is the wall time and process-counter growth of off-clock work.
type offClock struct {
	wall time.Duration
	proc procStat
}

// runOffClock runs f and accounts it as off-clock work.
func runOffClock(f func() error) (offClock, error) {
	p0, t0 := readProcStat(), time.Now()
	err := f()
	return offClock{wall: time.Since(t0), proc: readProcStat().sub(p0)}, err
}

// setupLog collects set-up timings across the repeated set-ups of a run.
type setupLog struct {
	total      []float64 // seconds, testbed creation to first op ready
	testbedUp  []float64 // ms, testbed constructor alone
	modelStart []float64 // ms, one model (or gang) start each
}

// timeTestbed times a testbed constructor into the log.
func (l *setupLog) timeTestbed(newTB func() (*core.Testbed, error)) (*core.Testbed, error) {
	t0 := time.Now()
	tb, err := newTB()
	l.testbedUp = append(l.testbedUp, ms(time.Since(t0)))
	return tb, err
}

// timeStart times one model (or gang) start into the log; a nil log
// (a reference run) times nothing.
func (l *setupLog) timeStart(start func() error) error {
	if l == nil {
		return start()
	}
	t0 := time.Now()
	err := start()
	l.modelStart = append(l.modelStart, ms(time.Since(t0)))
	return err
}

// blockOps is the op count of one block: the per-op rates and counters
// are medians over blocks, so a short stall from outside the benchmark
// moves a few blocks instead of the whole run's figure. A sweep campaign
// (256 ops) is always one block.
const blockOps = 10

// block is a run of consecutive batches holding at least blockOps ops.
type block struct {
	ops  int
	wall time.Duration // on-clock wall time
	proc procStat      // on-clock process counter growth
}

// phase is one measured stretch of the closed loop.
type phase struct {
	blocks  []block
	samples []sample
	// campaignMakespans holds each campaign batch's makespan in seconds.
	campaignMakespans []float64
	proc              procStat // process counter growth
	goroutinesPeak    int

	// Filled for the traced phase only.
	traffic map[string]classCount
	calls   trace.CallSummary
}

// ops is the number of ops the phase ran.
func (p *phase) ops() int { return len(p.samples) }

// perBlock is f over every block, for a median across blocks.
func (p *phase) perBlock(f func(b block) float64) []float64 {
	out := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		out[i] = f(b)
	}
	return out
}

// walls and virtuals are the per-op times in milliseconds.
func (p *phase) walls() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(s.wall)
	}
	return out
}

func (p *phase) virtuals() []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.failed {
			out = append(out, ms(s.virtual))
		}
	}
	return out
}

// closeTestbed shuts a testbed down and then crashes every host of its
// network. Testbed.Close leaves connections open whose blocked readers
// pin the whole network — with every payload the peer plane retained —
// in memory; breaking the connections lets a run's memory stay bounded
// across the testbeds it builds (see README.md).
func closeTestbed(tb *core.Testbed) {
	tb.Close()
	for _, h := range tb.Net.Hosts() {
		_ = tb.Net.CrashHost(h) // the host exists: it came from Hosts
	}
}

// setupAttempts bounds the attempts at one set-up. Worker starts can fail
// on the IPL registry join race (see README.md); a set-up is not an op,
// so a failed attempt is torn down, counted and tried again.
const setupAttempts = 3

// setupRetries counts the failed set-up attempts of the run.
var setupRetries atomic.Int64

// setupFresh tears the workload down and sets it up again, retrying a
// failed attempt. Only the successful attempt's timings enter the log.
func setupFresh(ctx context.Context, w workload, log *setupLog) error {
	var err error
	for i := 0; i < setupAttempts; i++ {
		w.teardown()
		var attempt setupLog
		t0 := time.Now()
		if err = w.setup(ctx, &attempt); err == nil {
			log.total = append(log.total, time.Since(t0).Seconds())
			log.testbedUp = append(log.testbedUp, attempt.testbedUp...)
			log.modelStart = append(log.modelStart, attempt.modelStart...)
			return nil
		}
		setupRetries.Add(1)
		logf("perfbench: set-up attempt %d failed: %v", i+1, err)
	}
	w.teardown()
	return err
}

// rebuild tears a workload's testbed down and sets it up afresh, moving
// the telemetry taps to the new testbed. Callers run it off the clock.
func rebuild(ctx context.Context, w workload, tp *taps) error {
	if tp != nil {
		tp.detach()
	}
	var log setupLog
	if err := setupFresh(ctx, w, &log); err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if tp != nil {
		tp.attach(w.testbed())
	}
	return nil
}

// errStateLost stops the loop: a stateful workload cannot continue after
// a failed op.
var errStateLost = errors.New("perfbench: workload state lost")

// measure runs batches until at least dur of on-clock time has passed and
// at least minOps ops have completed. The goroutine count is sampled
// after every batch.
func measure(ctx context.Context, w workload, dur time.Duration, minOps int) (*phase, error) {
	ph := &phase{}
	before := readProcStat()
	t0 := time.Now()
	var off offClock
	finish := func() {
		ph.proc = readProcStat().sub(before).sub(off.proc)
	}
	var cur block
	for time.Since(t0)-off.wall < dur || ph.ops() < minOps {
		if err := ctx.Err(); err != nil {
			return ph, fmt.Errorf("measure: %w", err)
		}
		p0, b0 := readProcStat(), time.Now()
		br, err := w.batch(ctx)
		cur.wall += time.Since(b0) - br.off.wall
		cur.proc = cur.proc.add(readProcStat().sub(p0).sub(br.off.proc))
		if cur.ops += len(br.samples); cur.ops >= blockOps {
			ph.blocks = append(ph.blocks, cur)
			cur = block{}
		}
		ph.samples = append(ph.samples, br.samples...)
		off.wall += br.off.wall
		off.proc = off.proc.add(br.off.proc)
		if br.campaign {
			ph.campaignMakespans = append(ph.campaignMakespans, br.makespan.Seconds())
		}
		if g := goroutines(); g > ph.goroutinesPeak {
			ph.goroutinesPeak = g
		}
		if err != nil {
			finish()
			return ph, fmt.Errorf("%w: %v", errStateLost, err)
		}
	}
	finish()
	return ph, nil
}

// taps collects the traced-phase telemetry of every testbed a phase
// uses (a workload that rebuilds its testbed re-attaches the taps): the
// vnet traffic per class through a counting recorder, and the channel-
// layer call histograms the testbed's recorder keeps.
type taps struct {
	traffic map[string]classCount
	calls   trace.Histogram
	errors  uint64

	rec         *countingRecorder
	restore     func()
	tb          *core.Testbed
	callsBefore map[trace.CallKey]trace.CallStats
}

func newTaps() *taps { return &taps{traffic: make(map[string]classCount)} }

// attach starts tapping a testbed.
func (tp *taps) attach(tb *core.Testbed) {
	tp.tb = tb
	tp.callsBefore = tb.Recorder.CallsSnapshot()
	tp.rec, tp.restore = installCounting(tb.Net)
}

// detach folds the attached testbed's telemetry in and removes the
// counting recorder.
func (tp *taps) detach() {
	if tp.tb == nil {
		return
	}
	tp.restore()
	for class, c := range tp.rec.snapshot() {
		t := tp.traffic[class]
		t.msgs += c.msgs
		t.bytes += c.bytes
		tp.traffic[class] = t
	}
	for k, st := range tp.tb.Recorder.CallsSnapshot() {
		h := st.Hist
		errs := st.Errors
		if prev, ok := tp.callsBefore[k]; ok {
			h.Sub(&prev.Hist)
			errs -= prev.Errors
		}
		tp.calls.Merge(&h)
		tp.errors += errs
	}
	tp.tb = nil
}

// measureTraced is measure with the telemetry taps on.
func measureTraced(ctx context.Context, w workload, dur time.Duration, minOps int) (*phase, error) {
	tp := newTaps()
	tp.attach(w.testbed())
	w.setTraced(tp)
	ph, err := measure(ctx, w, dur, minOps)
	w.setTraced(nil)
	tp.detach()
	ph.traffic = tp.traffic
	ph.calls = trace.CallSummary{
		Calls:  tp.calls.Count,
		Errors: tp.errors,
		P50:    time.Duration(tp.calls.Quantile(0.5)),
		P99:    time.Duration(tp.calls.Quantile(0.99)),
	}
	return ph, err
}
