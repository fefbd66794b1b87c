package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on shares its cores: its speed drifts by
// 10–40% (once about 2×) for minutes at a time, and every workload moves
// with it. So the end-to-end times are reported at a fixed reference
// speed: the workload process times a calibration loop that belongs to
// the benchmark (never to the program) between its units, and the raw
// times are scaled by refNominalMs ÷ the loop's median time in that run.
// A host that runs the loop 30% slower runs the program about 30% slower
// too, and the scaled time stays put; a change to the program moves the
// scaled time as it moves the raw one. The raw times are per-layer
// metrics.

// refNominalMs is the calibration loop's median time on the host the
// benchmark was written on (2-vCPU x86-64 container, Intel Xeon, Go
// 1.24), so that scaled times read as milliseconds there. It must never
// change: every recorded scaled time is relative to it.
const refNominalMs = 20.0

const (
	// calibReps is how many timed repetitions each calibration burst
	// makes.
	calibReps = 5
	// calibSteps is one repetition's work per goroutine, and
	// calibChunks the pieces it is cut into for sharing.
	calibSteps  = 1_300_000
	calibChunks = 8
)

// calibOps names the loop's op counters, as the vm's counters are
// keyed by op name.
var calibOps = []string{"add", "mul", "xor", "fma", "fsub", "cmp", "shl", "cvt", "fix"}

// calibInsn is one instruction of the calibration loop's program.
type calibInsn struct{ op, a, b, c uint8 }

// calibProg is a fixed 61-instruction program over 16 integer and 16
// float registers.
var calibProg = func() []calibInsn {
	p := make([]calibInsn, 61)
	x := uint32(12345)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = calibInsn{uint8(x>>24) % uint8(len(calibOps)), uint8(x>>16) % 16, uint8(x>>8) % 16, uint8(x) % 16}
	}
	return p
}()

// calibSink keeps the loop's result alive.
var calibSink atomic.Uint64

// calibLoop is the calibration work: a switch-dispatched register
// interpreter with a per-op counter map, the shape of the program's own
// hot loops, all of it resident in L1.
func calibLoop(steps int) {
	counts := map[string]int64{}
	var r [16]int64
	var f [16]float32
	for i := range r {
		r[i] = int64(i*7 + 1)
		f[i] = float32(i) * 0.5
	}
	for step := 0; step < steps; step++ {
		in := calibProg[step%len(calibProg)]
		switch in.op {
		case 0:
			r[in.a] = r[in.b] + r[in.c]
		case 1:
			r[in.a] = r[in.b] * (r[in.c] | 1)
		case 2:
			r[in.a] = r[in.b] ^ (r[in.c] >> 3)
		case 3:
			f[in.a] = f[in.b]*0.75 + f[in.c]
		case 4:
			f[in.a] = f[in.b] - f[in.c]*0.125
		case 5:
			if r[in.b] < r[in.c] {
				r[in.a]++
			}
		case 6:
			r[in.a] = r[in.b] << (r[in.c] & 7)
		case 7:
			f[in.a] = float32(r[in.b]&1023) * 0.001
		default:
			r[in.a] = int64(f[in.b]) + r[in.c]
		}
		counts[calibOps[in.op]]++
	}
	acc := uint64(len(counts)) + uint64(f[3])
	for _, v := range r {
		acc += uint64(v)
	}
	calibSink.Add(acc)
}

// calibrate times calibReps repetitions of the calibration work at the
// parallelism par of the units it sits between: par goroutines share
// par × calibSteps steps in chunks, as sweep workers share points, so a
// repetition takes about refNominalMs when par CPUs run at the reference
// speed, and longer when any of them is slowed. Workloads call it while
// none of the program's work is in flight, so that the samples spread
// over the whole run.
func (r *result) calibrate(par int) {
	for i := 0; i < calibReps; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(par*calibChunks) {
					calibLoop(calibSteps / calibChunks)
				}
			}()
		}
		wg.Wait()
		r.CalibMs = append(r.CalibMs, millis(time.Since(t0)))
	}
}
