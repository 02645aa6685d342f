package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// pct is the q-quantile (0..1) of xs by nearest rank; 0 for no samples.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sample is one operation's latency in ms and the time it ended.
type sample struct {
	at time.Time
	ms float64
}

// msOf returns the latencies of evs.
func msOf(evs []sample) []float64 {
	out := make([]float64, len(evs))
	for i, e := range evs {
		out[i] = e.ms
	}
	return out
}

// sliced is a closed-loop phase cut into equal time slices: the median
// over slices of each slice's throughput, p50 and p90. Medians over
// slices keep a few seconds of host contention, which a shared machine
// has, from moving a run's figures.
type sliced struct {
	opsPerSec, p50, p90 float64
	slices              int
}

// slice cuts evs, which ended in [start, start+d), into whole slices of
// length w; operations ending after the last whole slice are ignored.
func slice(evs []sample, start time.Time, d, w time.Duration) sliced {
	w = min(w, d)
	n := int(d / w)
	lat := make([][]float64, n)
	for _, e := range evs {
		if k := int(e.at.Sub(start) / w); k >= 0 && k < n {
			lat[k] = append(lat[k], e.ms)
		}
	}
	var ops, p50, p90 []float64
	for _, l := range lat {
		ops = append(ops, float64(len(l))/w.Seconds())
		p50 = append(p50, pct(l, 0.50))
		p90 = append(p90, pct(l, 0.90))
	}
	return sliced{median(ops), median(p50), median(p90), n}
}

// peakRSSMB is the benchmark process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// goSample reads the Go runtime counters the per-layer metrics use.
type goSample struct{ allocs, gcCPU, totalCPU float64 }

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// goDelta accumulates runtime counters over several intervals.
type goDelta struct{ allocs, gcCPU, totalCPU float64 }

func (d *goDelta) add(a, b goSample) {
	d.allocs += b.allocs - a.allocs
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

func (d *goDelta) gcFraction() float64 {
	if d.totalCPU == 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}
