package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"jungle/internal/amuse/data"
	"jungle/internal/amuse/ic"
	"jungle/internal/core"
	"jungle/internal/core/kernel"
	"jungle/internal/ipl"
	"jungle/internal/mpisim"
	"jungle/internal/phys/abm"
	"jungle/internal/phys/nbody"
	"jungle/internal/phys/tree"
	"jungle/internal/smartsockets"
	"jungle/internal/trace"
	"jungle/internal/vnet"
	"jungle/internal/vtime"
)

// logf prints a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// perLayerNames is every per-layer metric a traced run reports, in
// BENCHMARK.json order.
var perLayerNames = []string{
	"phys.sph.evolve_ms", "phys.tree.field_ms", "phys.nbody.step_ms", "phys.abm.step_us",
	"phys.sph.gflops", "phys.tree.gflops", "phys.nbody.gflops",
	"phys.sph.allocs_per_call", "phys.tree.allocs_per_call", "phys.nbody.allocs_per_call",
	"phys.flops_per_op",
	"kernel.state_marshal_MBps", "kernel.state_unmarshal_MBps", "kernel.state_allocs_per_MB", "kernel.encode_allocs",
	"core.calls_per_op", "core.call_virtual_us_p50", "core.call_errors_per_op", "core.model_start_ms_p50",
	"core.member_phase_ms.start", "core.member_phase_ms.setstate", "core.member_phase_ms.step", "core.member_phase_ms.getstate",
	"core.transfer_direct_frac", "core.transfer_fallbacks", "core.alloc_bytes_per_payload_byte", "core.gang_skew_max",
	"mpisim.allreduce_us", "mpisim.allgather_MBps",
	"vnet.msgs_per_op.loopback", "vnet.msgs_per_op.ipl", "vnet.msgs_per_op.hub", "vnet.msgs_per_op.peer", "vnet.msgs_per_op.mpi",
	"vnet.bytes_per_op.loopback", "vnet.bytes_per_op.ipl", "vnet.bytes_per_op.hub", "vnet.bytes_per_op.peer", "vnet.bytes_per_op.mpi",
	"smartsockets.connect_us", "deploy.testbed_up_ms",
	"ipl.join_ms.live1", "ipl.join_ms.live64", "ipl.join_failures",
	"sched.busy_retries_per_member", "sched.slot_util", "ensemble.staged_setups", "ensemble.member_virtual_ms_p90",
	"trace.record_call_ns", "runtime.gc_cpu_frac", "runtime.gc_cycles_per_op", "runtime.goroutines_peak",
	"harness.trace_overhead_frac", "harness.failed_frac", "harness.setup_retries",
}

// commonLayers adds the per-layer metrics every workload's traced run
// measures the same way: channel-layer calls, traffic per class, the
// runtime, set-up layers and the tracing overhead.
func commonLayers(m *metricSet, un, tr *phase, log *setupLog, t *tally) {
	n := float64(tr.ops())
	m.add("core.calls_per_op", float64(tr.calls.Calls)/n, "count")
	m.add("core.call_virtual_us_p50", float64(tr.calls.P50)/float64(time.Microsecond), "virtual_us")
	m.add("core.call_errors_per_op", float64(tr.calls.Errors)/n, "count")
	if !m.has("core.model_start_ms_p50") {
		m.add("core.model_start_ms_p50", median(log.modelStart), "ms")
	}
	m.add("core.alloc_bytes_per_payload_byte",
		ratio(float64(tr.proc.allocBytes), float64(totalBytes(tr.traffic))), "ratio")
	for _, c := range trafficClasses {
		m.add("vnet.msgs_per_op."+c, float64(tr.traffic[c].msgs)/n, "count")
		m.add("vnet.bytes_per_op."+c, float64(tr.traffic[c].bytes)/n, "B")
	}
	m.add("runtime.gc_cpu_frac", ratio(tr.proc.gcCPU, tr.proc.totalCPU), "fraction")
	m.add("runtime.gc_cycles_per_op", float64(tr.proc.gcCycles)/n, "count")
	m.add("runtime.goroutines_peak", float64(tr.goroutinesPeak), "count")
	base := median(un.walls())
	m.add("harness.trace_overhead_frac", ratio(median(tr.walls())-base, base), "fraction")
	m.add("deploy.testbed_up_ms", median(log.testbedUp), "ms")
	m.add("harness.failed_frac", t.failedFrac(), "fraction")
	m.add("harness.setup_retries", float64(setupRetries.Load()), "count")
}

// completeLayers fills the sweep-only metrics for the other workloads by
// running one traced campaign of the sweep-campaign workload on its own
// testbed, then confirms every per-layer metric is present.
func completeLayers(ctx context.Context, m *metricSet, seed int64) error {
	if !m.has("sched.slot_util") {
		s := newSweepCampaign(seed)
		var log setupLog
		err := s.setup(ctx, &log)
		if err == nil {
			s.setTraced(newTaps()) // phase timers only; no traffic taps
			_, err = s.batch(ctx)
			s.setTraced(nil)
		}
		if err == nil {
			err = s.layerMetrics(ctx, m, nil)
		}
		s.teardown()
		if err != nil {
			return fmt.Errorf("sweep layer probe: %w", err)
		}
	}
	for _, name := range perLayerNames {
		if !m.has(name) {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	return nil
}

// layerShape is the rank count and slab size the mpisim probe runs at.
type layerShape struct {
	ranks, slab int
}

// mpiShape is the workload's own MPI shape: the jungle-bridge's 8-rank
// SPH world over 1000 particles, or the gang's 4 ranks over 2048 stars.
// Workloads without an MPI world use the jungle-bridge shape.
func mpiShape(workload string) layerShape {
	if workload == "gang-kick" {
		return layerShape{ranks: gangRanks, slab: gangStars / gangRanks}
	}
	return layerShape{ranks: 8, slab: jungleWorkload(0).Gas / 8}
}

// probeLayers runs the per-layer probes that call each module's public
// functions directly, on the workloads' seeded inputs. It runs after the
// workload is torn down, so allocation counts see a quiet process.
func probeLayers(ctx context.Context, m *metricSet, workload string, seed int64) error {
	probes := []func() error{
		func() error { return probePhys(ctx, m, seed) },
		func() error { return probeCodec(m, seed) },
		func() error { return probeMPI(m, mpiShape(workload)) },
		func() error { return probeIPL(m) },
		func() error { probeTrace(m); return nil },
	}
	for _, p := range probes {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// allocObjs is the process's cumulative heap-object allocation count.
func allocObjs() uint64 { return readProcStat().allocObjs }

// timedCall is one probe call's wall time, allocations and flops.
type timedCall struct {
	wall   time.Duration
	allocs uint64
	flops  float64
}

// timeCalls runs prep (untimed, may be nil) and then f, reps times, and
// returns the median wall time, the median allocation count and the flops
// of the median-time call.
func timeCalls(reps int, prep func() error, f func() (float64, error)) (timedCall, error) {
	calls := make([]timedCall, reps)
	walls := make([]float64, reps)
	allocs := make([]float64, reps)
	for i := range calls {
		if prep != nil {
			if err := prep(); err != nil {
				return timedCall{}, err
			}
		}
		a0, t0 := allocObjs(), time.Now()
		flops, err := f()
		calls[i] = timedCall{wall: time.Since(t0), allocs: allocObjs() - a0, flops: flops}
		if err != nil {
			return timedCall{}, err
		}
		walls[i], allocs[i] = ms(calls[i].wall), float64(calls[i].allocs)
	}
	mid := median(walls)
	for _, c := range calls {
		if ms(c.wall) == mid {
			return timedCall{wall: c.wall, allocs: uint64(median(allocs)), flops: c.flops}, nil
		}
	}
	return calls[0], nil
}

// addKernel reports one physics kernel's time, rate and allocations.
func addKernel(m *metricSet, name, timeMetric string, c timedCall) {
	m.add("phys."+name+"."+timeMetric, ms(c.wall), "ms")
	m.add("phys."+name+".gflops", c.flops/c.wall.Seconds()/1e9, "Gflop/s")
	m.add("phys."+name+".allocs_per_call", float64(c.allocs), "count")
}

// probePhys calls the physics kernels directly: SPH and the tree field on
// the jungle-bridge initial conditions, the Hermite step on the
// gang-kick sphere, and the agent grid on the sweep colony.
func probePhys(ctx context.Context, m *metricSet, seed int64) error {
	w := jungleWorkload(seed)
	stars, gas, err := w.Build()
	if err != nil {
		return err
	}
	dev := &vtime.Device{Name: "probe", Kind: vtime.CPU, Gflops: 1, Cores: 1}

	// One hydro evolve of a bridge step, from the initial conditions.
	g := newSPH()
	c, err := timeCalls(3, func() error {
		g.RestoreClock(0, 0)
		g.ResetFlops()
		return g.SetParticles(gas)
	}, func() (float64, error) {
		if err := g.EvolveTo(ctx, w.DT); err != nil {
			return 0, err
		}
		return g.Flops(), nil
	})
	if err != nil {
		return fmt.Errorf("sph probe: %w", err)
	}
	addKernel(m, "sph", "evolve_ms", c)

	// One kick's coupling: the gas field at the stars and the stars'
	// field at the gas.
	k := tree.NewOctgrav(dev)
	c, err = timeCalls(9, nil, func() (float64, error) {
		_, _, f1 := k.FieldAt(ctx, gas.Mass, gas.Pos, stars.Pos, w.Eps)
		_, _, f2 := k.FieldAt(ctx, stars.Mass, stars.Pos, gas.Pos, w.Eps)
		return f1 + f2, nil
	})
	if err != nil {
		return err
	}
	addKernel(m, "tree", "field_ms", c)

	// One shared Hermite step of the gang's 2048-star sphere.
	sys := nbody.NewSystem(nbody.NewCPUKernel(dev), 0.01)
	sys.SetParticles(ic.Plummer(gangStars, seed))
	c, err = timeCalls(3, func() error { sys.ResetFlops(); return nil }, func() (float64, error) {
		_, err := sys.Step()
		return sys.Flops(), err
	})
	if err != nil {
		return fmt.Errorf("nbody probe: %w", err)
	}
	addKernel(m, "nbody", "step_ms", c)

	// One generation of the sweep colony.
	grid, err := abm.NewGrid(sweepBase())
	if err != nil {
		return err
	}
	copy(grid.U, abm.InitialU(sweepBase(), seed))
	const abmSteps = 2000
	t0 := time.Now()
	for i := 0; i < abmSteps; i++ {
		grid.Step()
	}
	m.add("phys.abm.step_us", float64(time.Since(t0))/float64(time.Microsecond)/abmSteps, "us")
	return nil
}

// probeCodec times the columnar state codec on the bulk-transfer payload
// (100k particles' mass, position and velocity) and counts the
// allocations of a control-call argument's Encode/Decode.
func probeCodec(m *metricSet, seed int64) error {
	p := ic.Plummer(bulkParticles, seed)
	st := kernel.NewState(p.Len()).AddFloat(data.AttrMass, p.Mass).
		AddVec(data.AttrPos, p.Pos).AddVec(data.AttrVel, p.Vel)
	var wire []byte
	enc, err := timeCalls(7, nil, func() (float64, error) {
		var err error
		wire, err = kernel.MarshalState(st)
		return 0, err
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	dec, err := timeCalls(7, nil, func() (float64, error) {
		_, err := kernel.UnmarshalState(wire)
		return 0, err
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	mb := float64(len(wire)) / 1e6
	m.add("kernel.state_marshal_MBps", mb/enc.wall.Seconds(), "MB/s")
	m.add("kernel.state_unmarshal_MBps", mb/dec.wall.Seconds(), "MB/s")
	m.add("kernel.state_allocs_per_MB", float64(enc.allocs+dec.allocs)/mb, "count")

	const reps = 1000
	arg := kernel.EvolveArgs{T: 0.125}
	a0 := allocObjs()
	for i := 0; i < reps; i++ {
		var out kernel.EvolveArgs
		if err := kernel.Decode(kernel.Encode(arg), &out); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	m.add("kernel.encode_allocs", float64(allocObjs()-a0)/reps, "count")
	return nil
}

// probeMPI times an allreduce and an allgather of one rank slab across
// an MPI world of the workload's shape, on a cluster of its own.
func probeMPI(m *metricSet, s layerShape) error {
	net := vnet.New()
	c, err := net.AddCluster(vnet.ClusterSpec{Name: "probe", Site: "probe", Nodes: s.ranks,
		FrontendPolicy: vnet.Open, NodePolicy: vnet.Open})
	if err != nil {
		return err
	}
	w, err := mpisim.NewWorld(net, c.NodeName)
	if err != nil {
		return err
	}
	defer w.Close()
	reduce := make([]float64, s.slab)
	gather := make([]float64, s.slab*6) // one slab's positions and velocities
	time1 := func(f func(r *mpisim.Rank) error) (timedCall, error) {
		return timeCalls(25, nil, func() (float64, error) { return 0, w.Run(f) })
	}
	ar, err := time1(func(r *mpisim.Rank) error {
		_, err := r.AllreduceSum(reduce)
		return err
	})
	if err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	ag, err := time1(func(r *mpisim.Rank) error {
		_, err := r.AllgatherFloats(gather)
		return err
	})
	if err != nil {
		return fmt.Errorf("allgather probe: %w", err)
	}
	m.add("mpisim.allreduce_us", float64(ar.wall)/float64(time.Microsecond), "us")
	gathered := float64(s.ranks*s.ranks*len(gather)*8) / 1e6 // MB landing on all ranks
	m.add("mpisim.allgather_MBps", gathered/ag.wall.Seconds(), "MB/s")
	return nil
}

// probeConnect times SmartSockets virtual-connection setup from the
// testbed's client to a remote resource's frontend through the hub
// overlay (a reverse or routed connection: the frontends are firewalled).
func probeConnect(m *metricSet, tb *core.Testbed) error {
	var target string
	for _, name := range tb.Deployment.Resources() {
		r, err := tb.Deployment.Resource(name)
		if err == nil && r.Frontend != tb.Client {
			target = r.HubHost
			break
		}
	}
	if target == "" {
		return fmt.Errorf("connect probe: no remote resource")
	}
	const base = 47000
	client, err := smartsockets.NewFactory(tb.Net, tb.Client, base, tb.Client)
	if err != nil {
		return fmt.Errorf("connect probe: %w", err)
	}
	defer client.Close()
	server, err := smartsockets.NewFactory(tb.Net, target, base, target)
	if err != nil {
		return fmt.Errorf("connect probe: %w", err)
	}
	defer server.Close()
	l, err := server.Listen(base + 1)
	if err != nil {
		return fmt.Errorf("connect probe: %w", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	c, err := timeCalls(25, nil, func() (float64, error) {
		conn, err := client.Connect(l.Addr(), 0)
		if err != nil {
			return 0, err
		}
		return 0, conn.Close()
	})
	l.Close()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("connect probe: %w", err)
	}
	m.add("smartsockets.connect_us", float64(c.wall)/float64(time.Microsecond), "us")
	return nil
}

// IPL probe shape: a pool on one hub, joined against 1 and then 64 live
// members, with the 64 joining concurrently.
const (
	iplStorm = 64
	iplReps  = 8
)

// probeIPL times ipl.Create against a registry holding 1 and 64 live
// members and counts the failures of a 64-join storm.
func probeIPL(m *metricSet) error {
	net := vnet.New()
	if _, err := net.AddHost("hub", "probe", vnet.Open); err != nil {
		return err
	}
	hostN := 0
	newHost := func() (string, error) {
		h := fmt.Sprintf("m%d", hostN)
		hostN++
		if _, err := net.AddHost(h, "probe", vnet.Open); err != nil {
			return "", err
		}
		return h, net.AddLink("hub", h, 100*time.Microsecond, 1.25e9)
	}
	ov, err := smartsockets.StartHubs(net, []string{"hub"})
	if err != nil {
		return err
	}
	defer ov.Stop()
	reg, err := ipl.NewRegistry(net, "hub", "hub")
	if err != nil {
		return err
	}
	defer reg.Close()
	create := func(host string) (*ipl.Ibis, error) {
		return ipl.Create(net, ipl.Config{Pool: "probe", Host: host, BasePort: 20000,
			HubHost: "hub", Registry: reg.Addr()})
	}
	join := func() (*ipl.Ibis, error) {
		h, err := newHost()
		if err != nil {
			return nil, err
		}
		return create(h)
	}
	var live []*ipl.Ibis
	defer func() {
		for _, ib := range live {
			ib.End()
		}
	}()
	// timedJoins times ipl.Create against the current live set; each
	// joiner leaves again before the next, outside the timed call.
	timedJoins := func() (float64, error) {
		var host string
		var joined *ipl.Ibis
		leave := func() {
			if joined != nil {
				joined.End()
				joined = nil
			}
		}
		c, err := timeCalls(iplReps, func() (err error) {
			leave()
			host, err = newHost()
			return err
		}, func() (float64, error) {
			var err error
			joined, err = create(host)
			return 0, err
		})
		leave()
		return ms(c.wall), err
	}

	first, err := join()
	if err != nil {
		return fmt.Errorf("ipl probe: %w", err)
	}
	live = append(live, first)
	live1, err := timedJoins()
	if err != nil {
		return fmt.Errorf("ipl probe (1 live): %w", err)
	}
	first.End()
	live = live[:0]

	// The storm: iplStorm members join at once.
	results := make([]*ipl.Ibis, iplStorm)
	errs := make([]error, iplStorm)
	var wg sync.WaitGroup
	for i := range results {
		h, err := newHost()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, h string) {
			defer wg.Done()
			results[i], errs[i] = create(h)
		}(i, h)
	}
	wg.Wait()
	failures := 0
	for i, ib := range results {
		if errs[i] != nil {
			failures++
			continue
		}
		live = append(live, ib)
	}
	// Top the pool back up to iplStorm live members one at a time.
	for len(live) < iplStorm {
		ib, err := join()
		if err != nil {
			return fmt.Errorf("ipl probe refill: %w", err)
		}
		live = append(live, ib)
	}
	live64, err := timedJoins()
	if err != nil {
		return fmt.Errorf("ipl probe (%d live): %w", iplStorm, err)
	}
	m.add("ipl.join_ms.live1", live1, "ms")
	m.add("ipl.join_ms.live64", live64, "ms")
	m.add("ipl.join_failures", float64(failures), "count")
	return nil
}

// probeTrace times one call-latency record into a fresh recorder.
func probeTrace(m *metricSet) {
	r := trace.New()
	const reps = 200000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		r.RecordCall("", "gravity", "evolve", time.Duration(i%4096)*time.Microsecond, time.Microsecond)
	}
	m.add("trace.record_call_ns", float64(time.Since(t0))/reps, "ns")
}
