package main

import (
	"context"
	"fmt"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/exp"
	"jungle/internal/phys/bridge"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/sph"
	"jungle/internal/phys/tree"
	"jungle/internal/vtime"
)

// jungleScale is the fraction of the calibrated §6 workload the
// jungle-bridge workload runs (100 stars, 1000 SPH particles).
const jungleScale = 0.1

// jungleWorkload is the §6.2 evaluation simulation at jungleScale, with
// the benchmark seed as its initial-condition seed.
func jungleWorkload(seed int64) exp.Workload {
	w := exp.DefaultWorkload().Scaled(jungleScale)
	w.Seed = seed
	return w
}

// coupledRun is one placement's four running models and their bridge.
type coupledRun struct {
	sim  *core.Simulation
	br   *bridge.Bridge
	grav *core.Gravity
}

// startCoupled starts the four models of a §6.2 placement on a testbed
// and assembles the bridge with the evaluation's coupling parameters.
// Each model start is timed into log when log is non-nil.
func startCoupled(ctx context.Context, tb *core.Testbed, w exp.Workload, p exp.Placement, log *setupLog) (*coupledRun, error) {
	stars, gas, err := w.Build()
	if err != nil {
		return nil, err
	}
	sim := core.NewSimulation(ctx, tb.Daemon, nil)
	run := &coupledRun{sim: sim}
	fail := func(err error) (*coupledRun, error) {
		_ = sim.Stop() // the start error is the one to report
		return nil, err
	}
	var h *core.Hydro
	var f *core.FieldModel
	var st *core.StellarModel
	err = log.timeStart(func() (err error) {
		run.grav, err = sim.NewGravity(ctx, p.Gravity, core.GravityOptions{Kernel: p.GravityKernel, Eps: 0.01})
		return err
	})
	if err != nil {
		return fail(fmt.Errorf("gravity: %w", err))
	}
	if err := run.grav.SetParticles(stars); err != nil {
		return fail(err)
	}
	if err := log.timeStart(func() (err error) {
		h, err = sim.NewHydro(ctx, p.Hydro, core.HydroOptions{SelfGravity: true, EpsGrav: 0.01})
		return err
	}); err != nil {
		return fail(fmt.Errorf("hydro: %w", err))
	}
	if err := h.SetParticles(gas); err != nil {
		return fail(err)
	}
	if err := log.timeStart(func() (err error) {
		f, err = sim.NewField(ctx, p.Field, core.FieldOptions{Kernel: p.FieldKernel, Eps: w.Eps})
		return err
	}); err != nil {
		return fail(fmt.Errorf("field: %w", err))
	}
	masses, myrPerTime, nbodyPerMSun := stellarScales(stars)
	if err := log.timeStart(func() (err error) {
		st, err = sim.NewStellar(ctx, p.Stellar, masses, myrPerTime, nbodyPerMSun)
		return err
	}); err != nil {
		return fail(fmt.Errorf("stellar: %w", err))
	}
	run.br, err = bridge.New(jungleBridgeConfig(w, run.grav, h, f, st))
	if err != nil {
		return fail(err)
	}
	return run, nil
}

// jungleBridgeConfig is the evaluation simulation's coupling (the values
// the §6 experiment runners use).
func jungleBridgeConfig(w exp.Workload, stars, gas bridge.Dynamics, field bridge.Field, st bridge.Stellar) bridge.Config {
	return bridge.Config{
		Stars: stars, Gas: gas, Coupler: field, Stellar: st,
		DT: w.DT, Eps: w.Eps, StellarEvery: 4,
		SNEnergy: 0.1, SNRadius: 0.3,
	}
}

// stellarScales recovers MSun masses from the N-body IMF sample by
// anchoring the lightest star at the IMF's 0.3 MSun lower bound, as the
// experiment runners do, and returns the stellar model's unit scales.
func stellarScales(stars *data.Particles) (massesMSun []float64, myrPerTime, nbodyPerMSun float64) {
	minMass := stars.Mass[0]
	for _, m := range stars.Mass {
		minMass = min(minMass, m)
	}
	msunPerNBody := 0.3 / minMass
	massesMSun = make([]float64, stars.Len())
	for i := range massesMSun {
		massesMSun[i] = stars.Mass[i] * msunPerNBody
	}
	return massesMSun, 2.0, 1 / msunPerNBody
}

// gravityDigest is the digest of a gravity model's phase-space state.
func gravityDigest(ctx context.Context, g *core.Gravity) (uint64, error) {
	st, err := g.GetState(ctx, data.AttrPos, data.AttrVel)
	if err != nil {
		return 0, fmt.Errorf("state digest: %w", err)
	}
	return kernel.DigestState(st), nil
}

// placement looks a §6.2 placement up by name.
func placement(tb *core.Testbed, name string) (exp.Placement, error) {
	for _, p := range exp.LabScenarios(tb) {
		if p.Name == name {
			return p, nil
		}
	}
	return exp.Placement{}, fmt.Errorf("no placement %q", name)
}

// jungleBridge is the jungle-bridge workload: the §6.2 "jungle" placement
// on the lab testbed — gravity on the LGM GPU, SPH on 8 VU nodes, the
// octgrav field on 2 TUD nodes, stellar evolution at the UvA — coupled by
// the bridge. One op is one bridge step.
type jungleBridge struct {
	w   exp.Workload
	tb  *core.Testbed
	run *coupledRun

	tracedTransfers core.TransferStats // transfer counters at traced-phase start
	transferDelta   core.TransferStats // transfers during the traced phase
}

func newJungleBridge(seed int64) *jungleBridge {
	return &jungleBridge{w: jungleWorkload(seed)}
}

func (j *jungleBridge) testbed() *core.Testbed { return j.tb }

func (j *jungleBridge) setup(ctx context.Context, log *setupLog) error {
	tb, err := log.timeTestbed(core.NewLabTestbed)
	if err != nil {
		return err
	}
	j.tb = tb
	p, err := placement(tb, "jungle")
	if err != nil {
		return err
	}
	j.run, err = startCoupled(ctx, tb, j.w, p, log)
	return err
}

func (j *jungleBridge) batch(ctx context.Context) (batchResult, error) {
	v0, t0 := j.run.sim.Elapsed(), time.Now()
	err := j.run.br.Step(ctx)
	s := sample{wall: time.Since(t0), virtual: j.run.sim.Elapsed() - v0, failed: err != nil}
	return batchResult{samples: []sample{s}}, err
}

func (j *jungleBridge) setTraced(tp *taps) {
	if tp != nil {
		j.tracedTransfers = j.run.sim.TransferStats()
		return
	}
	j.transferDelta = subTransfers(j.run.sim.TransferStats(), j.tracedTransfers)
}

// check replays the same seed for the same number of bridge steps on the
// cpu-only placement (every model in-process on the desktop) and compares
// the end-state digests: every §6.2 placement computes the same physics.
func (j *jungleBridge) check(ctx context.Context, measured []sample) (int, error) {
	got, err := gravityDigest(ctx, j.run.grav)
	if err != nil {
		return 0, err
	}
	p, err := placement(j.tb, "cpu-only")
	if err != nil {
		return 0, err
	}
	ref, err := startCoupled(ctx, j.tb, j.w, p, nil)
	if err != nil {
		return 0, fmt.Errorf("cpu-only reference: %w", err)
	}
	defer ref.sim.Stop()
	if err := ref.br.EvolveTo(ctx, j.run.br.Time()); err != nil {
		return 0, fmt.Errorf("cpu-only reference: %w", err)
	}
	if ref.br.Steps() != j.run.br.Steps() {
		return 0, fmt.Errorf("cpu-only reference ran %d steps, want %d", ref.br.Steps(), j.run.br.Steps())
	}
	want, err := gravityDigest(ctx, ref.grav)
	if err != nil {
		return 0, err
	}
	if got != want {
		logf("jungle-bridge: end digest %016x after %d steps, cpu-only reference %016x",
			got, j.run.br.Steps(), want)
		return len(measured), nil // the whole trajectory is unverified
	}
	return 0, nil
}

func (j *jungleBridge) layerMetrics(ctx context.Context, m *metricSet, traced *phase) error {
	addTransferMetrics(m, j.transferDelta)
	flops, err := jungleFlopsPerStep(ctx, j.w, 4)
	if err != nil {
		return err
	}
	m.add("phys.flops_per_op", flops, "flop")
	m.add("core.gang_skew_max", 0, "ratio")
	return nil
}

func (j *jungleBridge) teardown() {
	if j.run != nil {
		_ = j.run.sim.Stop() // worker stop errors on teardown change nothing
		j.run = nil
	}
	if j.tb != nil {
		closeTestbed(j.tb)
		j.tb = nil
	}
}

// subTransfers is the counter growth between two TransferStats.
func subTransfers(a, b core.TransferStats) core.TransferStats {
	return core.TransferStats{
		Direct: a.Direct - b.Direct, Striped: a.Striped - b.Striped,
		Fallback: a.Fallback - b.Fallback, Hairpin: a.Hairpin - b.Hairpin,
		StripeFallback: a.StripeFallback - b.StripeFallback,
	}
}

// addTransfers is the sum of two TransferStats.
func addTransfers(a, b core.TransferStats) core.TransferStats {
	return core.TransferStats{
		Direct: a.Direct + b.Direct, Striped: a.Striped + b.Striped,
		Fallback: a.Fallback + b.Fallback, Hairpin: a.Hairpin + b.Hairpin,
		StripeFallback: a.StripeFallback + b.StripeFallback,
	}
}

// addTransferMetrics reports how the traced phase's state transfers were
// carried: the share that went worker-to-worker, and the direct attempts
// that had to fall back to the coupler hairpin.
func addTransferMetrics(m *metricSet, t core.TransferStats) {
	all := t.Direct + t.Striped + t.Fallback + t.Hairpin
	m.add("core.transfer_direct_frac", ratio(float64(t.Direct+t.Striped), float64(all)), "fraction")
	m.add("core.transfer_fallbacks", float64(t.Fallback+t.StripeFallback), "count")
}

// jungleFlopsPerStep counts the physics flops of one coupled step by
// running the same coupled system in-process — the gravity, SPH and tree
// kernels called directly, with the jungle placement's kernel choices —
// for the given number of steps. Flop counts are what virtual time is
// derived from, so they must not change when only wall time does.
// Stellar evolution (table lookups, no flops) is left out.
func jungleFlopsPerStep(ctx context.Context, w exp.Workload, steps int) (float64, error) {
	stars, gas, err := w.Build()
	if err != nil {
		return 0, err
	}
	dev := &vtime.Device{Name: "probe", Kind: vtime.CPU, Gflops: 1, Cores: 1}
	sys := nbody.NewSystem(nbody.NewGPUKernel(dev), 0.01)
	sys.SetParticles(stars)
	g := newSPH()
	if err := g.SetParticles(gas); err != nil {
		return 0, err
	}
	br, err := bridge.New(jungleBridgeConfig(w, sys, g, tree.NewOctgrav(dev), nil))
	if err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		if err := br.Step(ctx); err != nil {
			return 0, fmt.Errorf("in-process bridge: %w", err)
		}
	}
	return (sys.Flops() + g.Flops() + br.CouplerFlops()) / float64(steps), nil
}

// newSPH is the SPH solver as the hydro model configures it for the
// evaluation (self-gravity on, softening 0.01).
func newSPH() *sph.Gas {
	g := sph.New()
	g.SelfGravity = true
	g.EpsGrav = 0.01
	return g
}
