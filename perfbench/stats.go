package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Per-round figures are summarised by the quartile on the quiet side: the
// lower quartile of times and latencies, the upper quartile of rates. CPU
// time the shared host steals from the VM only ever adds time, so the
// quieter rounds measure the system and the noisier ones the host; a
// regression in the system moves every round, the quiet ones too. The
// median would jump between a quiet and a noisy host state once half the
// rounds fell in a noisy spell.
func quietTime(xs []float64) float64 { return quantile(xs, 0.25) }

func quietRate(xs []float64) float64 { return quantile(xs, 0.75) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxGauge keeps the largest value noted, from any goroutine.
type maxGauge struct{ v atomic.Int64 }

func (g *maxGauge) note(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// procSampler watches the process over a timed section: the peak live heap
// (sampled every 5 ms), CPU time and GC pause time. The live heap is what
// the last finished GC cycle marked reachable, so garbage the sweeper has
// not yet freed does not count.
type procSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak maxGauge

	cpu0   time.Duration
	pause0 uint64
}

const heapMetric = "/gc/heap/live:bytes"

func heapNow() int64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcPauseNow() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

// startSampler starts watching a timed section. It collects garbage
// first, so each section's peak is its own.
func startSampler() *procSampler {
	runtime.GC()
	p := &procSampler{stop: make(chan struct{}), cpu0: cpuNow(), pause0: gcPauseNow()}
	p.peak.note(heapNow())
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.peak.note(heapNow())
			}
		}
	}()
	return p
}

// procStats is what a sampler saw.
type procStats struct {
	heapPeak int64
	cpu      time.Duration
	gcPause  time.Duration
}

// end stops the sampler and returns its figures.
func (p *procSampler) end() procStats {
	close(p.stop)
	p.done.Wait()
	p.peak.note(heapNow())
	return procStats{
		heapPeak: p.peak.v.Load(),
		cpu:      cpuNow() - p.cpu0,
		gcPause:  time.Duration(gcPauseNow() - p.pause0),
	}
}

// merge folds another timed section into s.
func (s *procStats) merge(o procStats) {
	s.heapPeak = max(s.heapPeak, o.heapPeak)
	s.cpu += o.cpu
	s.gcPause += o.gcPause
}
