package main

import (
	"sync"
	"testing"
	"time"

	"jungle/internal/trace"
	"jungle/internal/vnet"
)

// fakeRecorder records every call it receives.
type fakeRecorder struct {
	mu      sync.Mutex
	traffic []string
	bytes   int
	goodput []float64
}

func (f *fakeRecorder) RecordTraffic(from, to, class string, bytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.traffic = append(f.traffic, from+">"+to+":"+class)
	f.bytes += bytes
}

func (f *fakeRecorder) RecordGoodput(from, to string, bps float64, at time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.goodput = append(f.goodput, bps)
}

func TestCountingRecorderCountsAndForwards(t *testing.T) {
	inner := &fakeRecorder{}
	r := newCountingRecorder(inner)
	r.RecordTraffic("a", "b", "ipl", 100)
	r.RecordTraffic("b", "a", "ipl", 50)
	r.RecordTraffic("a", "c", "peer", 7)
	r.RecordGoodput("a", "b", 1e6, time.Second)

	got := r.snapshot()
	if got["ipl"] != (classCount{msgs: 2, bytes: 150}) || got["peer"] != (classCount{msgs: 1, bytes: 7}) {
		t.Errorf("counts = %+v", got)
	}
	if totalBytes(got) != 157 {
		t.Errorf("totalBytes = %d, want 157", totalBytes(got))
	}
	if len(inner.traffic) != 3 || inner.bytes != 157 || inner.traffic[2] != "a>c:peer" {
		t.Errorf("traffic not forwarded intact: %v, %d bytes", inner.traffic, inner.bytes)
	}
	if len(inner.goodput) != 1 || inner.goodput[0] != 1e6 {
		t.Errorf("goodput not forwarded: %v", inner.goodput)
	}
}

// A recorder that takes no goodput samples, or none at all, must not
// break the wrapper.
func TestCountingRecorderWithoutGoodputOrInner(t *testing.T) {
	type trafficOnly struct{ vnet.TrafficRecorder }
	inner := &fakeRecorder{}
	r := newCountingRecorder(trafficOnly{inner})
	r.RecordTraffic("a", "b", "hub", 1)
	r.RecordGoodput("a", "b", 1, 0)
	if inner.bytes != 1 || len(inner.goodput) != 0 {
		t.Errorf("inner saw %d bytes, %d goodput samples", inner.bytes, len(inner.goodput))
	}
	bare := newCountingRecorder(nil)
	bare.RecordTraffic("a", "b", "mpi", 8)
	bare.RecordGoodput("a", "b", 1, 0)
	if bare.snapshot()["mpi"].bytes != 8 {
		t.Error("a recorder with nothing to forward to stopped counting")
	}
}

// Installed on a real network, the wrapper sees the traffic of a vnet
// connection, and the testbed's trace recorder still receives all of it.
func TestInstallCountingOnNetwork(t *testing.T) {
	n := vnet.New()
	rec := trace.New()
	n.SetRecorder(rec)
	for _, h := range []string{"a", "b"} {
		if _, err := n.AddHost(h, "s", vnet.Open); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddLink("a", "b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	counting, restore := installCounting(n)
	n.RecordTransfer("a", "b", "peer", 1000)
	restore()
	n.RecordTransfer("a", "b", "peer", 1) // after restore: not counted
	if n.Recorder() != vnet.TrafficRecorder(rec) {
		t.Error("restore did not reinstall the original recorder")
	}
	if got := counting.snapshot()["peer"]; got != (classCount{msgs: 1, bytes: 1000}) {
		t.Errorf("counted %+v, want 1 msg of 1000 B", got)
	}
	if got := rec.Bytes("a", "b", "peer"); got != 1001 {
		t.Errorf("testbed recorder saw %d B, want 1001", got)
	}
}
