package main

import (
	"bytes"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// latencySummary is the median and the tail of one set of latencies.
type latencySummary struct {
	N          int
	P50, Tail  float64 // seconds
	TailPctile float64 // percent of samples at or below Tail
}

// summarize reports the median and the latency at the highest percentile
// that has at least tailBeyond samples beyond it (the maximum when there
// are too few samples for that, with TailPctile 100).
func summarize(lat []float64) latencySummary {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return latencySummary{}
	}
	out := latencySummary{N: n, P50: median(s)}
	k := n - 1 - tailBeyond
	if k < 0 {
		k = n - 1
	}
	out.Tail = s[k]
	out.TailPctile = 100 * float64(k+1) / float64(n)
	return out
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with the
// default exclusive method: it returns q1, median, q3.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython's exclusive method.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// rssSampler tracks the peak resident set size over one timed phase. It
// returns memory the runtime holds but does not use before it starts, so
// a peak reached while generating inputs or during an earlier phase does
// not carry into the phase it measures.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = residentBytes()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if b := residentBytes(); b > s.peak {
					s.peak = b
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if b := residentBytes(); b > s.peak {
		s.peak = b
	}
	return float64(s.peak) / (1 << 20)
}

// residentBytes reads the process's resident set size, falling back to the
// lifetime peak the kernel reports where /proc is unavailable.
func residentBytes() int64 {
	if buf, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := bytes.Fields(buf); len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return ru.Maxrss << 10
	}
	return 0
}
