package main

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestPctNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: rank 989 for p99, ten above it.
	if v, ok := pct(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave nine beyond the p99 rank: not reportable.
	if _, ok := pct(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples reported with fewer than ten beyond it")
	}
	if _, ok := pct(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples reported with nine beyond it")
	}
	if v, ok := pct(xs[:20], 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := pct(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// A stall must count against every request that fell due during it,
// not only against the request that stalled: with one request allowed in
// flight, requests due while request 0 blocks wait for it, and their
// latency, timed from their due time, must include that wait.
func TestOpenLoopStallCountsAgainstEveryDueRequest(t *testing.T) {
	const gap = time.Millisecond
	const stall = 40 * time.Millisecond
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	lat, late := openLoop(due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	stallEnd := stall // request 0 was due at 0
	for i, d := range due {
		if d >= stallEnd {
			break
		}
		if want := stallEnd - d; lat[i] < want {
			t.Errorf("request %d due at %v: latency %v, want at least %v (the stall's remainder)", i, d, lat[i], want)
		}
	}
	// The generator itself was held up by the in-flight bound, and says so.
	if late[1] < stall-gap {
		t.Errorf("generator lateness for request 1 = %v, want at least %v", late[1], stall-gap)
	}
}

// Without a stall the generator keeps to its schedule: lateness is
// measured for every request and stays small against the gaps.
func TestOpenLoopReportsLateness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	due := poissonSchedule(400, 4000, rng.ExpFloat64)
	var n atomic.Int64
	lat, late := openLoop(due, 64, func(int) { n.Add(1) })
	if n.Load() != int64(len(due)) || len(lat) != len(due) || len(late) != len(due) {
		t.Fatalf("ran %d of %d requests", n.Load(), len(due))
	}
	xs := make([]float64, len(late))
	for i, l := range late {
		if l < 0 {
			t.Fatalf("request %d dispatched %v before it was due", i, -l)
		}
		xs[i] = float64(l)
	}
	if p50, _ := pct(xs, 0.5); time.Duration(p50) > 5*time.Millisecond {
		t.Errorf("median generator lateness %v, want well under the run", time.Duration(p50))
	}
}

func TestPoissonScheduleIsSeededAndIncreasing(t *testing.T) {
	a := poissonSchedule(1000, 8000, rand.New(rand.NewSource(7)).ExpFloat64)
	b := poissonSchedule(1000, 8000, rand.New(rand.NewSource(7)).ExpFloat64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
	// 1000 arrivals at 8000/s span about 125ms.
	if span := a[len(a)-1]; span < 100*time.Millisecond || span > 150*time.Millisecond {
		t.Fatalf("1000 arrivals at 8000/s span %v", span)
	}
}
