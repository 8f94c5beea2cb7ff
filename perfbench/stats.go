package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timing is a latency summary: the median and the highest of the p99,
// p90 and p50 percentiles that has at least ten samples beyond it.
type timing struct {
	P50   float64
	Tail  float64
	TailQ string
	N     int
}

func summarize(xs []float64) timing {
	t := timing{P50: median(xs), N: len(xs), TailQ: "p50", Tail: median(xs)}
	for _, c := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			t.Tail, t.TailQ = quantile(xs, c.q), c.name
			break
		}
	}
	return t
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSample reads the runtime/metrics the benchmark reports.
type rtSample struct {
	heapBytes  uint64  // live + unswept heap objects
	allocBytes uint64  // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds the runtime accounts
}

var rtNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.heapBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[3].Value.Float64()
	}
	return r
}

// window measures one timed phase: wall time, process CPU, peak heap and
// the runtime allocation and GC counters. A sampler goroutine polls the
// heap (and the optional probe) until stop returns.
type window struct {
	start    time.Time
	cpu0     float64
	rt0      rtSample
	probe    func()
	stopCh   chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	heapPeak uint64
}

// phase is the result of a closed window.
type phase struct {
	Wall       time.Duration
	CPU        float64 // seconds
	HeapPeakMB float64
	AllocBytes float64
	GCCPUFrac  float64
}

const samplePeriod = 2 * time.Millisecond

func openWindow(probe func()) *window {
	w := &window{probe: probe, stopCh: make(chan struct{}), done: make(chan struct{})}
	w.rt0 = readRuntime()
	w.heapPeak = w.rt0.heapBytes
	w.cpu0 = cpuSeconds()
	w.start = time.Now()
	go w.loop()
	return w
}

func (w *window) loop() {
	defer close(w.done)
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-t.C:
			w.sample()
		}
	}
}

func (w *window) sample() {
	h := readRuntime().heapBytes
	w.mu.Lock()
	w.heapPeak = max(w.heapPeak, h)
	w.mu.Unlock()
	if w.probe != nil {
		w.probe()
	}
}

// close ends the window and waits for the sampler to exit.
func (w *window) close() phase {
	wall := time.Since(w.start)
	cpu := cpuSeconds() - w.cpu0
	close(w.stopCh)
	<-w.done
	w.sample()
	rt1 := readRuntime()
	p := phase{
		Wall:       wall,
		CPU:        cpu,
		HeapPeakMB: float64(w.heapPeak) / (1 << 20),
		AllocBytes: float64(rt1.allocBytes - w.rt0.allocBytes),
	}
	if d := rt1.totalCPU - w.rt0.totalCPU; d > 0 {
		p.GCCPUFrac = (rt1.gcCPU - w.rt0.gcCPU) / d
	}
	return p
}
