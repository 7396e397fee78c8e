package main

import (
	"sync"
	"time"

	"jungle/internal/vnet"
)

// trafficClasses are the vnet traffic classes the per-layer metrics
// report: the coupler↔daemon loopback, IPL ports and registry, the
// SmartSockets hub control plane, the worker peer plane and MPI worlds.
var trafficClasses = []string{"loopback", "ipl", "hub", "peer", "mpi"}

// classCount is the traffic one class carried.
type classCount struct {
	msgs  int
	bytes int
}

// countingRecorder is a vnet.TrafficRecorder that counts messages and
// bytes per traffic class and forwards every call — goodput samples
// included — to the recorder it wraps, so the testbed's observability
// plane sees exactly what it would without the wrapper.
type countingRecorder struct {
	inner vnet.TrafficRecorder

	mu     sync.Mutex
	counts map[string]classCount
}

func newCountingRecorder(inner vnet.TrafficRecorder) *countingRecorder {
	return &countingRecorder{inner: inner, counts: make(map[string]classCount)}
}

// RecordTraffic implements vnet.TrafficRecorder.
func (r *countingRecorder) RecordTraffic(from, to, class string, bytes int) {
	r.mu.Lock()
	c := r.counts[class]
	c.msgs++
	c.bytes += bytes
	r.counts[class] = c
	r.mu.Unlock()
	if r.inner != nil {
		r.inner.RecordTraffic(from, to, class, bytes)
	}
}

// RecordGoodput implements vnet.GoodputRecorder by forwarding, when the
// wrapped recorder takes goodput samples.
func (r *countingRecorder) RecordGoodput(from, to string, bytesPerSec float64, at time.Duration) {
	if g, ok := r.inner.(vnet.GoodputRecorder); ok {
		g.RecordGoodput(from, to, bytesPerSec, at)
	}
}

// snapshot copies the per-class counts.
func (r *countingRecorder) snapshot() map[string]classCount {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]classCount, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// totalBytes sums the bytes of every class.
func totalBytes(counts map[string]classCount) int {
	n := 0
	for _, c := range counts {
		n += c.bytes
	}
	return n
}

// installCounting wraps a network's recorder and returns the wrapper and
// a function that restores the original.
func installCounting(n *vnet.Network) (*countingRecorder, func()) {
	orig := n.Recorder()
	rec := newCountingRecorder(orig)
	n.SetRecorder(rec)
	return rec, func() { n.SetRecorder(orig) }
}
