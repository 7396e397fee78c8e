package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/ensemble"
	"jungle/internal/phys/abm"
	"jungle/internal/sched"
)

// Sweep-campaign shape: 4 initial-condition streams × 64 couplings on a
// 16×16 colony, 16 generations per member, 16 admission slots.
const (
	sweepICs       = 4
	sweepCouplings = 64
	sweepSlots     = 16
	sweepSteps     = 16
)

// sweepBase is the colony every member starts from.
func sweepBase() abm.Params {
	return abm.Params{W: 16, H: 16, D: 0.15, R: 0.6, B: 0.2, DT: 0.01}
}

// newABMSweep is the campaign definition for a seed: the seed is the
// plan's base seed, from which every initial-condition stream derives.
func newABMSweep(seed int64, name string) *ensemble.ABMSweep {
	ics := make([]float64, sweepICs)
	for i := range ics {
		ics[i] = float64(i)
	}
	bs := make([]float64, sweepCouplings)
	for i := range bs {
		bs[i] = 0.05 + 0.01*float64(i)
	}
	return &ensemble.ABMSweep{
		Plan: &ensemble.Plan{
			Name:     name,
			BaseSeed: seed,
			Axes: []ensemble.Axis{
				{Name: ensemble.AxisIC, Values: ics},
				{Name: ensemble.AxisB, Values: bs},
			},
			SetupAxes: []string{ensemble.AxisIC},
		},
		Base:  sweepBase(),
		Steps: sweepSteps,
		Spec:  core.WorkerSpec{Channel: core.ChannelIbis},
	}
}

// memberPhases are the wall times of one member's four runner phases.
type memberPhases struct {
	start, setState, step, getState time.Duration
}

// sweepCampaign is the sweep-campaign workload: a 256-member agent-based
// campaign with shared-setup dedup, fanned through the scheduler's
// admission slots as one ensemble run. One op is one member, timed from
// admission to its end-state digest; one batch is one campaign.
type sweepCampaign struct {
	seed  int64
	tb    *core.Testbed
	sc    *sched.Scheduler
	count int  // campaigns run, for unique plan names
	fresh bool // the testbed has run no campaign yet

	tp *taps // non-nil during the traced phase
	// Traced-phase accounting.
	mu          sync.Mutex
	phases      []memberPhases
	runnerWall  time.Duration // Σ member runner wall time
	tracedWall  time.Duration // Σ campaign wall time
	reports     []*ensemble.Report
	memberCount int
}

func newSweepCampaign(seed int64) *sweepCampaign { return &sweepCampaign{seed: seed} }

func (s *sweepCampaign) testbed() *core.Testbed { return s.tb }

func (s *sweepCampaign) setup(ctx context.Context, log *setupLog) error {
	tb, err := log.timeTestbed(core.NewLabTestbed)
	if err != nil {
		return err
	}
	s.tb = tb
	s.sc = sched.New(tb.Daemon, sched.Config{
		MaxLive: sweepSlots, QueueCap: sweepICs * sweepCouplings,
		RetryAfter: time.Millisecond, Recorder: tb.Recorder,
	})
	s.fresh = true
	return nil
}

// batch runs one whole campaign, on a fresh testbed: members leak a
// goroutine and some heap each (see README.md), so every campaign starts
// from the same clean state and the leak shows per campaign instead of
// growing with the run.
func (s *sweepCampaign) batch(ctx context.Context) (batchResult, error) {
	var off offClock
	if !s.fresh {
		var err error
		off, err = runOffClock(func() error { return rebuild(ctx, s, s.tp) })
		if err != nil {
			return batchResult{off: off}, err
		}
	}
	s.fresh = false
	s.count++
	sw := newABMSweep(s.seed, fmt.Sprintf("sweep%d", s.count))
	members := sw.Plan.Size()
	walls := make([]time.Duration, members)
	runner := sw.RunMember
	traced := s.tp != nil
	if traced {
		runner = s.phasedRunner(sw)
	}
	cfg := ensemble.Config{
		Scheduler: s.sc, Plan: sw.Plan, Setup: sw.SetupBlob,
		Run: func(ctx context.Context, sess *sched.Session, m ensemble.Member, setup []byte) (uint64, time.Duration, error) {
			t0 := time.Now()
			d, v, err := runner(ctx, sess, m, setup)
			walls[m.Index] = time.Since(t0)
			return d, v, err
		},
	}
	t0 := time.Now()
	rep, err := ensemble.Run(ctx, cfg)
	wall := time.Since(t0)
	if err != nil {
		return batchResult{off: off}, fmt.Errorf("campaign: %w", err)
	}
	br := batchResult{campaign: true, makespan: rep.Makespan, off: off}
	for i, r := range rep.Members {
		br.samples = append(br.samples, sample{
			wall: walls[i], virtual: r.Virtual, failed: r.Err != "",
			key: r.Index, digest: r.Digest,
		})
		if r.Err != "" {
			logf("sweep-campaign: member %d failed: %s", r.Index, r.Err)
		}
	}
	// Every member sharing an initial-condition stream shares one staged
	// setup blob; a campaign that staged more did not dedup.
	if rep.StagedSetups != sweepICs {
		for i := range br.samples {
			br.samples[i].digest = 0 // fails the output check
		}
		logf("sweep-campaign: %d staged setups, want %d", rep.StagedSetups, sweepICs)
	}
	if traced {
		s.mu.Lock()
		s.tracedWall += wall
		for _, w := range walls {
			s.runnerWall += w
		}
		s.reports = append(s.reports, rep)
		s.memberCount += members
		s.mu.Unlock()
	}
	return br, nil
}

// phasedRunner is ABMSweep.RunMember with a wall timer around each of its
// four phases: model start, staged-state apply, the step call and the
// end-state read. It computes exactly what RunMember does; the digest
// check holds it to that.
func (s *sweepCampaign) phasedRunner(sw *ensemble.ABMSweep) ensemble.RunnerFunc {
	return func(ctx context.Context, sess *sched.Session, m ensemble.Member, setup []byte) (uint64, time.Duration, error) {
		var ph memberPhases
		sim := sess.NewSim(ctx, nil)
		// The counting recorder hides the testbed's recorder from
		// NewSimulation's default; keep the plane on as users run it.
		sim.Monitor = s.tb.Recorder
		p := memberParams(sw.Base, m)
		t0 := time.Now()
		model, err := sim.NewModel(ctx, core.Kind(abm.Kind), sw.Spec,
			abm.SetupArgs{W: p.W, H: p.H, D: p.D, R: p.R, B: p.B, DT: p.DT})
		ph.start = time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("member %d: %w", m.Index, err)
		}
		t0 = time.Now()
		if setup != nil {
			st, err := kernel.UnmarshalState(setup)
			if err != nil {
				return 0, 0, fmt.Errorf("member %d: staged setup: %w", m.Index, err)
			}
			if err := model.SetState(ctx, st); err != nil {
				return 0, 0, fmt.Errorf("member %d: %w", m.Index, err)
			}
		}
		ph.setState = time.Since(t0)
		t0 = time.Now()
		if err := model.Call(ctx, "step", abm.StepArgs{Steps: sw.Steps}, nil); err != nil {
			return 0, 0, fmt.Errorf("member %d: %w", m.Index, err)
		}
		ph.step = time.Since(t0)
		t0 = time.Now()
		st, err := model.GetState(ctx, abm.AttrState)
		if err != nil {
			return 0, 0, fmt.Errorf("member %d: %w", m.Index, err)
		}
		ph.getState = time.Since(t0)
		s.mu.Lock()
		s.phases = append(s.phases, ph)
		s.mu.Unlock()
		return kernel.DigestState(st), sim.Elapsed(), nil
	}
}

// memberParams is a member's effective colony: the base with its axis
// overrides (the sweep's only swept dynamics parameter is the coupling B).
func memberParams(base abm.Params, m ensemble.Member) abm.Params {
	if v, ok := m.Params[ensemble.AxisB]; ok {
		base.B = v
	}
	return base
}

func (s *sweepCampaign) setTraced(tp *taps) { s.tp = tp }

// check replays every member directly on an abm.Grid — the same staged
// colony, the same parameters, the same number of generations, no
// worker — and compares each measured member's digest with the replay.
func (s *sweepCampaign) check(ctx context.Context, measured []sample) (int, error) {
	ref, err := sweepReference(s.seed)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for _, sm := range measured {
		if sm.failed {
			continue
		}
		if sm.key < 0 || sm.key >= len(ref) || sm.digest != ref[sm.key] {
			wrong++
		}
	}
	if wrong > 0 {
		logf("sweep-campaign: %d member digests differ from the direct replay", wrong)
	}
	return wrong, nil
}

// sweepReference computes every member's expected digest in member order.
func sweepReference(seed int64) ([]uint64, error) {
	sw := newABMSweep(seed, "reference")
	members, err := sw.Plan.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(members))
	for _, m := range members {
		blob, err := sw.SetupBlob(m)
		if err != nil {
			return nil, err
		}
		st, err := kernel.UnmarshalState(blob)
		if err != nil {
			return nil, err
		}
		g, err := abm.NewGrid(memberParams(sw.Base, m))
		if err != nil {
			return nil, err
		}
		copy(g.U, st.Float(abm.AttrState))
		copy(g.Phi, st.Float(abm.AttrPotential))
		for i := 0; i < sw.Steps; i++ {
			g.Step()
		}
		end := kernel.NewState(g.N())
		end.Key = g.Key
		end.AddFloat(abm.AttrState, g.U)
		out[m.Index] = kernel.DigestState(end)
	}
	return out, nil
}

func (s *sweepCampaign) layerMetrics(ctx context.Context, m *metricSet, traced *phase) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.phases) == 0 || len(s.reports) == 0 {
		return fmt.Errorf("sweep-campaign: traced phase recorded no members")
	}
	var start, setState, step, getState, virtuals []float64
	for _, p := range s.phases {
		start = append(start, ms(p.start))
		setState = append(setState, ms(p.setState))
		step = append(step, ms(p.step))
		getState = append(getState, ms(p.getState))
	}
	m.add("core.member_phase_ms.start", median(start), "ms")
	m.add("core.member_phase_ms.setstate", median(setState), "ms")
	m.add("core.member_phase_ms.step", median(step), "ms")
	m.add("core.member_phase_ms.getstate", median(getState), "ms")
	retries, staged := 0, 0
	for _, r := range s.reports {
		retries += r.Retries
		staged = r.StagedSetups
		for _, mr := range r.Members {
			if mr.Err == "" {
				virtuals = append(virtuals, ms(mr.Virtual))
			}
		}
	}
	m.add("sched.busy_retries_per_member", ratio(float64(retries), float64(s.memberCount)), "count")
	m.add("sched.slot_util", ratio(s.runnerWall.Seconds(), sweepSlots*s.tracedWall.Seconds()), "fraction")
	m.add("ensemble.staged_setups", float64(staged), "count")
	m.add("ensemble.member_virtual_ms_p90", quantile(virtuals, 0.9), "virtual_ms")
	// traced is nil when this campaign is the sweep probe of another
	// workload's traced run, whose own metrics fill the rest.
	if traced != nil {
		// Members start their model inside the measured op: the model
		// start is the member's start phase.
		m.add("core.model_start_ms_p50", median(start), "ms")
		flops, err := abmFlopsPerMember()
		if err != nil {
			return err
		}
		m.add("phys.flops_per_op", flops, "flop")
		m.add("core.transfer_direct_frac", 0, "fraction")
		m.add("core.transfer_fallbacks", 0, "count")
		m.add("core.gang_skew_max", 0, "ratio")
	}
	return nil
}

// abmFlopsPerMember is the physics work of one member: its generations
// on the base colony (the flop count does not depend on B).
func abmFlopsPerMember() (float64, error) {
	g, err := abm.NewGrid(sweepBase())
	if err != nil {
		return 0, err
	}
	var flops float64
	for i := 0; i < sweepSteps; i++ {
		flops += g.Step()
	}
	return flops, nil
}

func (s *sweepCampaign) teardown() {
	if s.sc != nil {
		s.sc.Shutdown()
		s.sc = nil
	}
	if s.tb != nil {
		closeTestbed(s.tb)
		s.tb = nil
	}
}
