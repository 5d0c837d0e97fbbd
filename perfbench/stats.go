package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 read off fewer than ten tail samples is one stall's
// worth of noise, not a distribution.
const minBeyond = 10

// pct returns the q-quantile (nearest rank) of xs and whether at least
// minBeyond samples lie strictly beyond its rank. xs is not modified.
func pct(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= minBeyond
}

// median is the plain median, for small sets of repeated measurements
// (set-up and recovery repeats) where the tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recorder collects latency samples (ns) by class from many goroutines.
type recorder struct {
	mu sync.Mutex
	by map[string][]float64
}

func newRecorder() *recorder { return &recorder{by: make(map[string][]float64)} }

func (r *recorder) add(class string, d time.Duration) {
	r.mu.Lock()
	r.by[class] = append(r.by[class], float64(d))
	r.mu.Unlock()
}

// put replaces the samples of a class.
func (r *recorder) put(class string, xs []float64) {
	r.mu.Lock()
	r.by[class] = xs
	r.mu.Unlock()
}

// bytes is the heap the recorder's sample buffers hold.
func (r *recorder) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, xs := range r.by {
		n += 8 * cap(xs)
	}
	return n
}

func (r *recorder) get(class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.by[class]
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from exp (an exponential variate source, mean 1).
func poissonSchedule(n int, rate float64, exp func() float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += exp() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop issues do(i) for request i at due[i] after the start, whatever
// the state of earlier requests, with at most limit requests in flight.
// Each latency is timed from the request's due time, not from when it was
// sent, so a stall in the system or in the generator counts against every
// request that fell due during it. late[i] is how far behind schedule the
// generator dispatched request i.
func openLoop(due []time.Duration, limit int, do func(i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		sleepUntil(start.Add(d))
		sem <- struct{}{}
		late[i] = time.Since(start) - d
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
			lat[i] = time.Since(start) - due[i]
			<-sem
		}(i)
	}
	wg.Wait()
	return lat, late
}

// sleepUntil waits for t. Go's timers round an idle process's sleeps up
// to the millisecond, far coarser than the gaps of an 8000 req/s
// schedule, so short waits block the thread in nanosleep instead: that
// costs no CPU and wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
		d = time.Until(t)
		if d <= 0 {
			return
		}
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
