package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"monetlite/internal/workload"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is VmHWM, the process's peak resident set since the last
// resetRSSPeak, in MB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetRSSPeak restarts VmHWM at the current resident set (clear_refs 5,
// Linux 4.0) and reports whether the kernel allowed it.
func resetRSSPeak() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// heapCounters reads the allocator's cumulative counters without stopping
// the world (unlike runtime.ReadMemStats), so it can bracket every query.
type heapCounters struct {
	samples [4]metrics.Sample
}

func newHeapCounters() *heapCounters {
	h := &heapCounters{}
	h.samples[0].Name = "/gc/heap/allocs:bytes"
	h.samples[1].Name = "/gc/heap/allocs:objects"
	h.samples[2].Name = "/gc/cycles/total:gc-cycles"
	h.samples[3].Name = "/cpu/classes/gc/total:cpu-seconds"
	return h
}

type heapReading struct {
	bytes, objects, gcCycles uint64
	gcCPUSeconds             float64
}

func (h *heapCounters) read() heapReading {
	metrics.Read(h.samples[:])
	return heapReading{
		bytes:        h.samples[0].Value.Uint64(),
		objects:      h.samples[1].Value.Uint64(),
		gcCycles:     h.samples[2].Value.Uint64(),
		gcCPUSeconds: h.samples[3].Value.Float64(),
	}
}

// gcPauseMaxMS is the longest stop-the-world pause among the GC cycles
// numbered (fromGC, toGC] (at most the last 256 are kept by the runtime).
func gcPauseMaxMS(ms *runtime.MemStats, fromGC uint32) float64 {
	worst := uint64(0)
	for gc := ms.NumGC; gc > fromGC && ms.NumGC-gc < uint32(len(ms.PauseNs)); gc-- {
		worst = max(worst, ms.PauseNs[(gc+255)%256])
	}
	return float64(worst) / 1e6
}

// Host canaries measure the box, not the program: if one moves by more than
// canaryTolerance between two runs the comparison is reported unresolved.
// Each pass measures them in its own process: the timed pass's qualify the
// end-to-end metrics (taken after the queries, so the buffer is not in
// rss_peak_mb), the traced pass's are the per-layer host.* metrics.
const (
	canaryBytes   = 256 << 20 // beyond every cache level a query's working set sees
	canaryReps    = 9         // sequential reads; the median is reported
	canaryHops    = 1 << 19   // dependent loads per pointer-chase repetition
	canaryLatReps = 5         // after one untimed repetition that faults the pages in
)

// measureHost measures the box and lists the readings under the host.*
// names of BENCHMARK.json.
func measureHost(cfg config) *metricSet {
	buf := make([]uint64, max(canaryBytes>>cfg.shrink, 1<<16)/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	seq := func(goroutines int) float64 {
		gbps := make([]float64, canaryReps)
		for r := range gbps {
			gbps[r] = seqReadGBps(buf, goroutines)
		}
		return median(gbps)
	}
	m := &metricSet{}
	m.add("host.seq_read_gbps_1", seq(1), "GB/s")
	m.add("host.seq_read_gbps_2", seq(2), "GB/s") // 2 goroutines: where bandwidth, not latency, saturates
	m.add("host.rand_lat_ns", randLatencyNS(buf, cfg.seed, max(canaryHops>>cfg.shrink, 1<<12)), "ns")
	m.add("host.clock_ns", clockNS(), "ns")
	m.add("host.nproc", float64(runtime.NumCPU()), "count")
	return m
}

// seqReadGBps streams buf once, split over the goroutines, and returns GB/s.
func seqReadGBps(buf []uint64, goroutines int) float64 {
	var wg sync.WaitGroup
	sums := make([]uint64, goroutines)
	part := len(buf) / goroutines
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := uint64(0)
			for _, v := range buf[g*part : (g+1)*part] {
				s += v
			}
			sums[g] = s
		}(g)
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	sink += sums[0]
	return float64(part*goroutines*8) / sec / 1e9
}

// sink keeps measured loops from being optimized away.
var sink uint64

// randLatencyNS chases a random cycle through buf, one hop per cache line,
// and returns the median nanoseconds per dependent load of canaryLatReps
// repetitions of hops loads each.
func randLatencyNS(buf []uint64, seed uint64, hops int) float64 {
	const stride = 8 // uint64s per 64-byte line
	nodes := len(buf) / stride
	perm := make([]int32, nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	// Sattolo's algorithm: one cycle through every node.
	rng := workload.NewRNG(seed)
	for i := nodes - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		buf[i*stride] = uint64(p) * stride
	}
	at := uint64(0)
	ns := make([]float64, 0, canaryLatReps)
	for r := 0; r <= canaryLatReps; r++ {
		start := time.Now()
		for i := 0; i < hops; i++ {
			at = buf[at]
		}
		if r > 0 {
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(hops))
		}
	}
	sink += at
	return median(ns)
}

// clockNS is the cost of one time.Now pair, the floor under every span.
func clockNS() float64 {
	const n = 200000
	start := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	sink += uint64(last.Nanosecond())
	return float64(time.Since(start).Nanoseconds()) / n
}
