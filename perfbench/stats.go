package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	fmetrics "fairco2/internal/metrics"
)

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the Go runtime's cumulative allocation and GC counts.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeCounters{allocs: v(0), allocBytes: v(1), gcCycles: v(2)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// liveHeap forces two GC cycles and returns the bytes the second found
// live. A forced cycle marks nothing allocated while it runs, unlike the
// background cycles of a busy phase, which count everything allocated
// during a mark the host's stalls can stretch as live; the second cycle
// frees what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// quantile is the q-quantile of xs by linear interpolation (xs is sorted
// in place), or 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// registrySnapshot sums each gathered family's samples (over every label
// set) by family name. Families are read by name and absence is not an
// error, so a family a later change deletes simply stops being reported.
type registrySnapshot map[string]float64

func snapshotRegistry(reg *fmetrics.Registry) registrySnapshot {
	out := registrySnapshot{}
	for _, f := range reg.Gather() {
		out[f.Name] += 0 // present, even before its first labeled child
		for _, s := range f.Samples {
			out[f.Name] += s.Value
		}
	}
	return out
}

// delta returns after-before for family name, and whether it was present.
func (a registrySnapshot) delta(before registrySnapshot, name string) (float64, bool) {
	v, ok := a[name]
	return v - before[name], ok
}
