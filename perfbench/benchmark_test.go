package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := sorted(got), sorted(want)
	if len(g) != len(w) {
		t.Fatalf("%s: harness has %d names, BENCHMARK.json %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: harness name %q, BENCHMARK.json %q", what, g[i], w[i])
		}
	}
}

// Every workload BENCHMARK.json lists is one the harness runs.
func TestBenchmarkJSONWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
}

// The end-to-end set the harness prints is exactly BENCHMARK.json's, with
// the same units.
func TestBenchmarkJSONEndToEnd(t *testing.T) {
	ph := &phase{blocks: []block{{ops: 10, wall: time.Second}}}
	for i := 0; i < 10; i++ {
		ph.samples = append(ph.samples, sample{wall: time.Millisecond, virtual: time.Millisecond})
	}
	m := &metricSet{}
	endToEnd(m, ph, &setupLog{total: []float64{1}}, &tally{attempted: 10}, 1)
	var want []string
	for _, e := range loadSpec(t).EndToEnd {
		want = append(want, e.Name)
		if got := m.values[e.Name]; got.Unit != e.Unit {
			t.Errorf("%s: harness unit %q, BENCHMARK.json %q", e.Name, got.Unit, e.Unit)
		}
	}
	sameNames(t, "end_to_end", m.names, want)
}

func TestBenchmarkJSONPerLayer(t *testing.T) {
	var want []string
	for _, e := range loadSpec(t).PerLayer {
		want = append(want, e.Name)
	}
	sameNames(t, "per_layer", perLayerNames, want)
}
