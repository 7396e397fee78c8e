package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/phys/nbody"
	"jungle/internal/vtime"
)

// Gang-kick shape: a 2048-star gravity model deployed as a K=4 gang on
// DSL site-a; each op advances the model by one (shortened) Hermite step.
const (
	gangStars = 2048
	gangRanks = 4
	gangDT    = 1e-6 // model time per op: exactly one shared Hermite step
)

// gangKicks is the seeded per-star velocity increment every op applies.
func gangKicks(seed int64) []data.Vec3 {
	rng := rand.New(rand.NewSource(seed ^ 0x6b69636b))
	dv := make([]data.Vec3, gangStars)
	for i := range dv {
		dv[i] = data.Vec3{1e-6 * rng.NormFloat64(), 1e-6 * rng.NormFloat64(), 1e-6 * rng.NormFloat64()}
	}
	return dv
}

// gangKick is the gang-kick workload. One op is Kick + EvolveTo.
type gangKick struct {
	seed   int64
	tb     *core.Testbed
	sim    *core.Simulation
	g      *core.Gravity
	dv     []data.Vec3
	target float64
	ops    int
}

func newGangKick(seed int64) *gangKick { return &gangKick{seed: seed, dv: gangKicks(seed)} }

func (k *gangKick) testbed() *core.Testbed { return k.tb }

// startGravity starts a gravity model of the given gang size on site-a
// and loads the seeded Plummer sphere.
func (k *gangKick) startGravity(ctx context.Context, workers int, log *setupLog) (*core.Gravity, error) {
	spec := core.WorkerSpec{Resource: k.tb.SiteA, Channel: core.ChannelIbis, Workers: workers}
	var g *core.Gravity
	err := log.timeStart(func() (err error) {
		g, err = k.sim.NewGravity(ctx, spec, core.GravityOptions{Eps: 0.01})
		return err
	})
	if err != nil {
		return nil, err
	}
	return g, g.SetParticles(ic.Plummer(gangStars, k.seed))
}

func (k *gangKick) setup(ctx context.Context, log *setupLog) error {
	tb, err := log.timeTestbed(core.NewDSLTestbed)
	if err != nil {
		return err
	}
	k.tb = tb
	k.sim = core.NewSimulation(ctx, tb.Daemon, nil)
	k.g, err = k.startGravity(ctx, gangRanks, log)
	k.target, k.ops = 0, 0
	return err
}

// kickStep is one op on a gravity model.
func kickStep(ctx context.Context, g *core.Gravity, dv []data.Vec3, target float64) error {
	if err := g.Kick(ctx, dv); err != nil {
		return err
	}
	return g.EvolveTo(ctx, target)
}

func (k *gangKick) batch(ctx context.Context) (batchResult, error) {
	k.target += gangDT
	k.ops++
	v0, t0 := k.sim.Elapsed(), time.Now()
	err := kickStep(ctx, k.g, k.dv, k.target)
	s := sample{wall: time.Since(t0), virtual: k.sim.Elapsed() - v0, failed: err != nil}
	return batchResult{samples: []sample{s}}, err
}

// setTraced arms the gang rebalancer's measurement rounds for the traced
// phase with a trigger no skew reaches, so it samples per-rank load (the
// skew gauge) but never reshards.
func (k *gangKick) setTraced(tp *taps) {
	if tp != nil {
		if err := k.g.EnableRebalance(core.ElasticPolicy{SkewThreshold: 1e9, Interval: 4}); err != nil {
			logf("gang-kick: skew sampling unavailable: %v", err)
		}
		return
	}
	k.g.DisableRebalance()
}

// check runs the same ops on a solo worker from the same initial state
// and compares end-state digests: the gang's domain decomposition must be
// bit-identical to one worker.
func (k *gangKick) check(ctx context.Context, measured []sample) (int, error) {
	got, err := gravityDigest(ctx, k.g)
	if err != nil {
		return 0, err
	}
	solo, err := k.startGravity(ctx, 1, nil)
	if err != nil {
		return 0, fmt.Errorf("solo reference: %w", err)
	}
	target := 0.0
	for i := 0; i < k.ops; i++ {
		target += gangDT
		if err := kickStep(ctx, solo, k.dv, target); err != nil {
			return 0, fmt.Errorf("solo reference: %w", err)
		}
	}
	want, err := gravityDigest(ctx, solo)
	if err != nil {
		return 0, err
	}
	if got != want {
		logf("gang-kick: gang digest %016x after %d ops, solo %016x", got, k.ops, want)
		return len(measured), nil
	}
	return 0, nil
}

func (k *gangKick) layerMetrics(ctx context.Context, m *metricSet, traced *phase) error {
	var skew float64
	for _, row := range k.tb.Recorder.GangTable() {
		skew = max(skew, row.Stats.MaxSkew)
	}
	m.add("core.gang_skew_max", skew, "ratio")
	m.add("core.transfer_direct_frac", 0, "fraction")
	m.add("core.transfer_fallbacks", 0, "count")
	flops, err := nbodyFlopsPerStep(k.seed)
	if err != nil {
		return err
	}
	m.add("phys.flops_per_op", flops, "flop")
	return nil
}

// nbodyFlopsPerStep is the force-kernel work of one op: one shared
// Hermite step of the seeded 2048-star sphere, run in-process.
func nbodyFlopsPerStep(seed int64) (float64, error) {
	s := nbody.NewSystem(nbody.NewCPUKernel(&vtime.Device{Name: "probe", Kind: vtime.CPU, Gflops: 1, Cores: 1}), 0.01)
	s.SetParticles(ic.Plummer(gangStars, seed))
	s.ResetFlops()
	if _, err := s.Step(); err != nil {
		return 0, err
	}
	return s.Flops(), nil
}

func (k *gangKick) teardown() {
	if k.sim != nil {
		_ = k.sim.Stop() // worker stop errors on teardown change nothing
		k.sim = nil
	}
	if k.tb != nil {
		closeTestbed(k.tb)
		k.tb = nil
	}
}
