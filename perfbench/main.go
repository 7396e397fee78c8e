// Command perfbench is the repository's benchmark: four seeded, closed-
// loop workloads that time the coupled physics, the control plane, the
// bulk data plane and kernel gangs in both of the system's clocks —
// virtual (modelled) time and wall time/allocations — and check every
// output. See README.md in this directory for the workloads and metrics.
//
//	go run . --workload jungle-bridge --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end set; with --trace 1 a separate traced run reports the
// per-layer set. A human-readable table goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Harness constants.
const (
	setupReps   = 5   // set-ups per run; setup_s is their median
	warmOps     = 2   // untimed ops before measuring (one campaign for the sweep)
	virtualOps  = 100 // ops whose summed virtual time is virtual_s_total
	minTraceOps = 20  // ops per half of a traced run (p50 only)
	runBudget   = 170 * time.Second
)

// workloadNames lists the workloads the harness runs. BENCHMARK.json
// lists those the regression gate runs (see README.md).
var workloadNames = []string{"jungle-bridge", "sweep-campaign", "bulk-transfer", "gang-kick"}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "jungle-bridge":
		return newJungleBridge(seed), nil
	case "sweep-campaign":
		return newSweepCampaign(seed), nil
	case "bulk-transfer":
		return newBulkTransfer(seed), nil
	case "gang-kick":
		return newGangKick(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an insertion-ordered metric collection.
type metricSet struct {
	names  []string
	values map[string]metric
}

func (m *metricSet) add(name string, value float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
}

func (m *metricSet) has(name string) bool {
	_, ok := m.values[name]
	return ok
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Int("seconds", 10, "measured seconds per run")
	tr := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *secs < 1 {
		return options{}, fmt.Errorf("--seconds must be >= 1")
	}
	if *tr != 0 && *tr != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{workload: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *tr == 1}, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	res, err := run(ctx, o)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and assembles its result.
func run(ctx context.Context, o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	var log setupLog
	for i := 0; i < setupReps; i++ {
		if err := setupFresh(ctx, w, &log); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
	}
	tornDown := false
	teardown := func() {
		if !tornDown {
			w.teardown()
			tornDown = true
		}
	}
	defer teardown()

	if _, err := measure(ctx, w, 0, warmOps); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", o.workload, err)
	}

	var t tally
	m := &metricSet{}
	var measured []sample
	lost := false
	// runPhase folds a phase into the tally; a lost workload state ends
	// the run with correct=false rather than an error, so the failure is
	// reported, not hidden.
	runPhase := func(ph *phase, err error) error {
		if ph != nil {
			t.add(ph.samples)
			measured = append(measured, ph.samples...)
		}
		if err != nil {
			if errors.Is(err, errStateLost) {
				lost = true
				return nil
			}
			return err
		}
		return nil
	}

	if !o.trace {
		if !resetPeakRSS() {
			logf("perfbench: peak RSS covers the whole process (no high-water reset)")
		}
		ph, err := measure(ctx, w, o.seconds, minSamplesFor(0.9, minTail))
		if err := runPhase(ph, err); err != nil {
			return nil, err
		}
		peak := peakRSSMB()
		if !lost {
			if err := checkOutputs(ctx, w, measured, &t); err != nil {
				return nil, err
			}
		}
		endToEnd(m, ph, &log, &t, peak)
	} else {
		half := o.seconds / 2
		un, err := measure(ctx, w, half, minTraceOps)
		if err := runPhase(un, err); err != nil {
			return nil, err
		}
		var tr *phase
		if !lost {
			tr, err = measureTraced(ctx, w, half, minTraceOps)
			if err := runPhase(tr, err); err != nil {
				return nil, err
			}
		}
		if lost {
			return &result{Correct: false, Attempted: t.attempted, Failed: t.bad(), Metrics: map[string]metric{}}, nil
		}
		if err := w.layerMetrics(ctx, m, tr); err != nil {
			return nil, err
		}
		if err := probeConnect(m, w.testbed()); err != nil {
			return nil, err
		}
		if err := checkOutputs(ctx, w, measured, &t); err != nil {
			return nil, err
		}
		teardown()
		commonLayers(m, un, tr, &log, &t)
		if err := probeLayers(ctx, m, o.workload, o.seed); err != nil {
			return nil, err
		}
		if err := completeLayers(ctx, m, o.seed); err != nil {
			return nil, err
		}
	}
	report(o, m, &t)
	return &result{
		Correct:   !lost && t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.bad(),
		Metrics:   m.values,
	}, nil
}

// checkOutputs runs the workload's output check (outside every measured
// phase) and folds wrong outputs into the tally.
func checkOutputs(ctx context.Context, w workload, measured []sample, t *tally) error {
	wrong, err := w.check(ctx, measured)
	if err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	t.addWrong(wrong)
	return nil
}

// endToEnd fills the end-to-end metrics from an untraced phase. Op
// times are percentiles over every op; rates and per-op counters are
// medians over blocks.
func endToEnd(m *metricSet, ph *phase, log *setupLog, t *tally, peakRSS float64) {
	walls := ph.walls()
	perOp := func(f func(b block) float64) float64 {
		return median(ph.perBlock(func(b block) float64 { return f(b) / float64(b.ops) }))
	}
	m.add("setup_s", median(log.total), "s")
	m.add("ops_per_s", median(ph.perBlock(func(b block) float64 { return float64(b.ops) / b.wall.Seconds() })), "1/s")
	m.add("op_wall_ms_p50", quantile(walls, 0.5), "ms")
	m.add("op_wall_ms_p90", quantile(walls, 0.9), "ms")
	m.add("op_virtual_ms_p50", median(ph.virtuals()), "virtual_ms")
	m.add("virtual_s_total", virtualTotal(ph), "virtual_s")
	m.add("cpu_s_per_op", perOp(func(b block) float64 { return b.proc.cpu.Seconds() }), "s")
	m.add("alloc_MB_per_op", perOp(func(b block) float64 { return float64(b.proc.allocBytes) / 1e6 }), "MB")
	m.add("allocs_per_op", perOp(func(b block) float64 { return float64(b.proc.allocObjs) }), "count")
	m.add("peak_rss_MB", peakRSS, "MB")
	m.add("success_frac", 1-t.failedFrac(), "fraction")
}

// virtualTotal is the modelled makespan of a fixed unit of work, so that
// it does not grow with the number of ops a faster build fits into the
// measured seconds: the summed virtual time of the first virtualOps ops
// for the stateful workloads, or, when a batch holds many ops (a sweep
// campaign), the median campaign makespan.
func virtualTotal(ph *phase) float64 {
	if len(ph.campaignMakespans) > 0 {
		return median(ph.campaignMakespans)
	}
	var sum time.Duration
	for i, s := range ph.samples {
		if i == virtualOps {
			break
		}
		sum += s.virtual
	}
	return sum.Seconds()
}

// report prints the human-readable table to standard error.
func report(o options, m *metricSet, t *tally) {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d %s: %d ops attempted, %d failed, %d wrong\n",
		o.workload, o.seed, mode, t.attempted, t.failed, t.wrong)
	names := append([]string(nil), m.names...)
	if o.trace {
		sort.Strings(names)
	}
	for _, n := range names {
		v := m.values[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
