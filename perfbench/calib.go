package main

import (
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Core-speed calibration. On a shared host the speed of the cores the VM
// runs on drifts by tens of percent over minutes with what the host's other
// tenants run (sibling hyperthreads, shared caches, clock boost), and the
// CPU time a record costs drifts with it; steal accounting does not remove
// that. A reference kernel that runs briefly and often beside the workload
// measures the speed in thread CPU time, and the result line's times are
// scaled to a nominal core on which one reference unit takes refUnit.
//
// The kernel mirrors the two costs the workloads are made of: a
// nearest-neighbour distance scan over a 2000 x 9 table (KNN predict and
// the optimizer's arithmetic) and AES-GCM sealing of 1400-byte frames.

// refUnit is the CPU time one reference unit takes on the nominal core.
const refUnit = 30 * time.Microsecond

const (
	calibEvery = 25 * time.Millisecond // one sample per tick, about 0.5% of a CPU
	calibUnits = 4                     // reference units per sample
)

// calibCPU is the CPU time calibration threads have used; cpuTime leaves
// it out.
var calibCPU atomic.Int64

// calibSink keeps the kernel's arithmetic from being optimized away.
var calibSink float64

// calibration samples the reference kernel until stop.
type calibration struct {
	quit, done chan struct{}
	units      []float64 // CPU microseconds per reference unit, one per sample
}

func startCalibration() *calibration {
	c := &calibration{quit: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibration) loop() {
	defer close(c.done)
	// Locked to its thread, the goroutine's CPU time is the thread's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	last := threadCPU()
	defer func() { calibCPU.Add(int64(threadCPU() - last)) }()

	rng := rand.New(rand.NewSource(datasetSeed))
	table := make([]float64, 2000*9)
	for i := range table {
		table[i] = rng.Float64()
	}
	block, _ := aes.NewCipher(make([]byte, 32)) // a 32-byte key cannot fail
	gcm, _ := cipher.NewGCM(block)
	frame, sealed, nonce := make([]byte, 1400), make([]byte, 0, 1500), make([]byte, gcm.NonceSize())
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	sink := 0.0
	for u := 0; ; {
		s := threadCPU()
		for end := u + calibUnits; u < end; u++ {
			q := table[(u%2000)*9:][:9]
			for r := 0; r < len(table); r += 9 {
				d := 0.0
				for j, v := range table[r : r+9] {
					t := v - q[j]
					d += t * t
				}
				sink += d
			}
			for k := 0; k < 8; k++ {
				sealed = gcm.Seal(sealed[:0], nonce, frame, nil)
			}
		}
		e := threadCPU()
		c.units = append(c.units, float64(e-s)/1e3/calibUnits)
		calibCPU.Add(int64(e - last))
		last = e
		select {
		case <-c.quit:
			calibSink = sink
			return
		case <-tick.C:
		}
	}
}

// stop ends sampling and returns the median CPU microseconds per
// reference unit.
func (c *calibration) stop() float64 {
	close(c.quit)
	<-c.done
	return pctl(c.units, 0.5)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}
