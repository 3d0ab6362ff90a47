package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// sampler records the Go heap (live and not yet swept objects) while a
// run is in progress: the peak of each one-second window.
type sampler struct {
	done  chan struct{}
	peaks chan []float64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{}), peaks: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapObjects}}
		start := time.Now()
		var peaks []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			w := int(time.Since(start) / window)
			for len(peaks) <= w {
				peaks = append(peaks, 0)
			}
			peaks[w] = max(peaks[w], float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-s.done:
				s.peaks <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median across windows of the
// per-window heap peak, in MB: the peak a run typically reaches, which a
// single late garbage collection does not move.
func (s *sampler) stop() float64 {
	close(s.done)
	return pctl(<-s.peaks, 0.5)
}

// procSnap is a reading of the process-wide counters, or the difference
// between two readings.
type procSnap struct {
	wall  time.Duration // since an arbitrary origin
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

var procOrigin = time.Now()

// cpuTime is the CPU time the process has used so far, user and system,
// without the core-speed calibration's. With paravirtual steal accounting
// (Linux guests on KVM) time the host runs other tenants on our CPUs is
// not counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano()+ru.Stime.Nano()) - time.Duration(calibCPU.Load())
}

func readProc() procSnap {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	return procSnap{
		wall:  time.Since(procOrigin),
		cpu:   cpuTime(),
		alloc: sample[0].Value.Uint64(),
		gcs:   sample[1].Value.Uint64(),
	}
}

func (s procSnap) sub(o procSnap) procSnap {
	return procSnap{s.wall - o.wall, s.cpu - o.cpu, s.alloc - o.alloc, s.gcs - o.gcs}
}

func (s procSnap) add(o procSnap) procSnap {
	return procSnap{s.wall + o.wall, s.cpu + o.cpu, s.alloc + o.alloc, s.gcs + o.gcs}
}

// procMetrics derives the proc.* per-layer metrics from counter deltas
// spanning ops primary operations.
func procMetrics(d procSnap, ops int64) map[string]metric {
	m := map[string]metric{
		"proc.cpu_busy_ratio": {float64(d.cpu) / (float64(d.wall) * float64(nproc())), "ratio"},
	}
	if ops > 0 {
		m["proc.alloc_kb_per_op"] = metric{float64(d.alloc) / 1024 / float64(ops), "KB"}
		m["proc.gc_cycles_per_kop"] = metric{float64(d.gcs) * 1000 / float64(ops), "count"}
	}
	return m
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	field := func(f [65]int8) string {
		var sb strings.Builder
		for _, c := range f {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		return sb.String()
	}
	return field(u.Sysname) + " " + field(u.Release) + " " + field(u.Machine)
}

// nproc is the number of CPUs the load and the ratios are sized by.
func nproc() int { return runtime.NumCPU() }
