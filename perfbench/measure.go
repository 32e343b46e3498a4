package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark's clock. Wall-clock reads live only in this package;
// the program under test never sees them.

// stopwatch measures elapsed host time from its start.
type stopwatch struct{ t0 time.Time }

func startWatch() stopwatch { return stopwatch{t0: time.Now()} }

// seconds is the host time elapsed since the stopwatch started.
func (w stopwatch) seconds() float64 { return time.Since(w.t0).Seconds() }

// ms is the host time elapsed since the stopwatch started, in ms.
func (w stopwatch) ms() float64 { return float64(time.Since(w.t0).Nanoseconds()) / 1e6 }

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile of xs; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, p)
}

// tailPercentile returns the highest of the percentiles 99.9, 99, 95,
// 90 and 50 that leaves at least ten samples beyond it, with that
// percentile and the sample count. The value is the nearest-rank
// sample.
func tailPercentile(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return nearestRank(s, p), p, n
		}
	}
	return nearestRank(s, 50), 50, n
}

// nearestRank is the p-th percentile of sorted s by the nearest-rank rule.
func nearestRank(s []float64, p float64) float64 {
	i := int(float64(len(s))*p/100+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// runtimeSample is one reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPUSeconds             float64
	liveBytes                uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readRuntime samples the runtime counters the per-layer metrics use.
func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var s runtimeSample
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		s.allocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		s.allocObjects = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPUSeconds = v.Float64()
	}
	if v := samples[3].Value; v.Kind() == metrics.KindUint64 {
		s.liveBytes = v.Uint64()
	}
	return s
}

// liveAfterGC forces a collection and returns the live heap it found.
func liveAfterGC() uint64 {
	runtime.GC()
	return readRuntime().liveBytes
}
