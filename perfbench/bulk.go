package main

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
)

// Bulk-transfer shape: 100k particles' mass, position and velocity
// columns (5.6 MB) between the DSL testbed's two sites, whose link is
// capped at 1.25e7 B/s per stream.
const (
	bulkParticles = 100000
	bulkStreamCap = 1.25e7
	// bulkCycle is how many transfers run on one testbed before it is
	// rebuilt off the clock. The peer plane keeps every transfer's payload
	// alive (see README.md); without the rebuild a 10-second run would
	// hold gigabytes.
	bulkCycle = 32
)

// bulkAttrs are the columns every transfer moves.
var bulkAttrs = []string{data.AttrMass, data.AttrPos, data.AttrVel}

// bulkTransfer is the bulk-transfer workload: Simulation.TransferState
// between gravity workers on the two DSL sites, alternating direction,
// with the data-plane settings at their defaults. One op is one transfer.
type bulkTransfer struct {
	inputs [2]*data.Particles // the two sites' initial particles
	tb     *core.Testbed
	sim    *core.Simulation
	a, b   *core.Gravity
	want   uint64 // digest of site A's initial columns
	ops    int    // transfers on this testbed

	cycle     int          // testbed generation; samples carry it as key
	badCycles map[int]bool // generations whose end state failed the check

	tp       *taps
	tracedAt core.TransferStats // counters of the current sim at traced start
	traced   core.TransferStats // traced-phase transfers, across rebuilds
}

func newBulkTransfer(seed int64) *bulkTransfer {
	return &bulkTransfer{
		inputs:    [2]*data.Particles{ic.Plummer(bulkParticles, seed), ic.Plummer(bulkParticles, seed+1)},
		badCycles: make(map[int]bool),
	}
}

func (t *bulkTransfer) testbed() *core.Testbed { return t.tb }

func (t *bulkTransfer) setup(ctx context.Context, log *setupLog) error {
	tb, err := log.timeTestbed(core.NewDSLTestbed)
	if err != nil {
		return err
	}
	t.tb = tb
	if err := tb.Net.SetLinkStreamCap(tb.SiteA, tb.SiteB, bulkStreamCap); err != nil {
		return err
	}
	t.sim = core.NewSimulation(ctx, tb.Daemon, nil)
	start := func(resource string, p *data.Particles) (*core.Gravity, error) {
		var g *core.Gravity
		err := log.timeStart(func() (err error) {
			g, err = t.sim.NewGravity(ctx, core.WorkerSpec{Resource: resource, Channel: core.ChannelIbis},
				core.GravityOptions{Eps: 0.01})
			return err
		})
		if err != nil {
			return nil, err
		}
		return g, g.SetParticles(p)
	}
	if t.a, err = start(tb.SiteA, t.inputs[0]); err != nil {
		return err
	}
	if t.b, err = start(tb.SiteB, t.inputs[1]); err != nil {
		return err
	}
	st, err := t.a.GetState(ctx, bulkAttrs...)
	if err != nil {
		return err
	}
	t.want, t.ops = kernel.DigestState(st), 0
	t.cycle++
	t.tracedAt = core.TransferStats{}
	return nil
}

func (t *bulkTransfer) batch(ctx context.Context) (batchResult, error) {
	var off offClock
	if t.ops == bulkCycle {
		var err error
		off, err = runOffClock(func() error {
			if err := t.checkCycle(ctx); err != nil {
				return err
			}
			t.foldTraced()
			return rebuild(ctx, t, t.tp)
		})
		if err != nil {
			return batchResult{off: off}, err
		}
	}
	src, dst := t.a, t.b
	if t.ops%2 == 1 {
		src, dst = dst, src
	}
	t.ops++
	v0, t0 := t.sim.Elapsed(), time.Now()
	err := t.sim.TransferState(ctx, src, dst, bulkAttrs...)
	s := sample{wall: time.Since(t0), virtual: t.sim.Elapsed() - v0, failed: err != nil, key: t.cycle}
	return batchResult{samples: []sample{s}, off: off}, err
}

// foldTraced adds the current sim's traced-phase transfers to the total.
func (t *bulkTransfer) foldTraced() {
	if t.tp != nil {
		t.traced = addTransfers(t.traced, subTransfers(t.sim.TransferStats(), t.tracedAt))
		t.tracedAt = t.sim.TransferStats()
	}
}

func (t *bulkTransfer) setTraced(tp *taps) {
	if tp != nil {
		t.tp, t.tracedAt, t.traced = tp, t.sim.TransferStats(), core.TransferStats{}
		return
	}
	t.foldTraced()
	t.tp = nil
}

// checkCycle compares both workers' column digests with site A's initial
// columns: after the first a→b transfer every transfer moves those same
// bytes, so any corruption on the way shows at the end of the cycle.
func (t *bulkTransfer) checkCycle(ctx context.Context) error {
	for _, g := range []*core.Gravity{t.a, t.b} {
		st, err := g.GetState(ctx, bulkAttrs...)
		if err != nil {
			return fmt.Errorf("bulk-transfer state read: %w", err)
		}
		if got := kernel.DigestState(st); got != t.want {
			logf("bulk-transfer: cycle %d worker digest %016x, source %016x", t.cycle, got, t.want)
			t.badCycles[t.cycle] = true
		}
	}
	return nil
}

// check verifies the last cycle and counts the measured transfers of
// every cycle that failed its check.
func (t *bulkTransfer) check(ctx context.Context, measured []sample) (int, error) {
	if err := t.checkCycle(ctx); err != nil {
		return 0, err
	}
	wrong := 0
	for _, s := range measured {
		if t.badCycles[s.key] {
			wrong++
		}
	}
	return wrong, nil
}

func (t *bulkTransfer) layerMetrics(ctx context.Context, m *metricSet, traced *phase) error {
	addTransferMetrics(m, t.traced)
	m.add("phys.flops_per_op", 0, "flop") // a transfer runs no physics
	m.add("core.gang_skew_max", 0, "ratio")
	return nil
}

func (t *bulkTransfer) teardown() {
	if t.sim != nil {
		_ = t.sim.Stop() // worker stop errors on teardown change nothing
		t.sim = nil
	}
	if t.tb != nil {
		closeTestbed(t.tb)
		t.tb = nil
	}
}
