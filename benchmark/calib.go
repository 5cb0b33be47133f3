package main

import (
	"runtime"
	"sync"
	"time"
)

// refCalibRate is the calibrator rate (kernel passes per second per
// running kernel) that normalised metrics are expressed against. On the
// 2-vCPU Xeon @ 2.70GHz host the bounds in BENCHMARK.json were set on,
// run medians ranged 210,000–320,000; a † metric reads what the raw
// figure would have been on that host at this rate. It is frozen with
// the kernel below: changing either changes every normalised figure.
const refCalibRate = 250000.0

// The calibration kernel reproduces the access pattern of the gateway
// decoder's two hot loops at their production sizes: a Φᵀ-apply (a
// gather through a density-4 sparse binary column index of 512 columns
// over 205 measurements, the paper's 60% ratio) and a wavelet-style
// 8-tap FIR sweep over one 512-sample window. Its working set (8 KiB of
// int32 indices, ~6 KiB of float64) is cache resident like the solver's,
// and each pass feeds the next, so the loop is throughput-bound on the
// same load/FMA mix as FISTA. An L1-resident dependent-chain loop does
// not track decode speed on this host; this shape does.
const (
	calibCols    = 512
	calibRows    = 205
	calibDensity = 4
	calibTaps    = 8
)

type calibKernel struct {
	idx [calibCols * calibDensity]int32
	y   [calibRows]float64
	g   [calibCols + calibTaps]float64
	h   [calibTaps]float64
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{}
	state := uint32(2463534242)
	next := func() uint32 { // xorshift32: a fixed index stream
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for i := range k.idx {
		k.idx[i] = int32(next() % calibRows)
	}
	for i := range k.y {
		k.y[i] = 0.5 + float64(next()%1000)/1000
	}
	// Positive taps summing to one keep every value a convex mix of the
	// initial ones: bounded, never denormal.
	sum := 0.0
	for t := range k.h {
		k.h[t] = float64(t + 1)
		sum += k.h[t]
	}
	for t := range k.h {
		k.h[t] /= sum
	}
	return k
}

// pass runs one gather + FIR sweep and returns a value that depends on
// all of it, so the compiler cannot drop the work.
func (k *calibKernel) pass() float64 {
	for j := 0; j < calibCols; j++ {
		b := j * calibDensity
		k.g[j] = 0.25 * (k.y[k.idx[b]] + k.y[k.idx[b+1]] + k.y[k.idx[b+2]] + k.y[k.idx[b+3]])
	}
	copy(k.g[calibCols:], k.g[:calibTaps])
	for i := 0; i < calibRows; i++ {
		o := (i * 5) % calibCols
		acc := 0.0
		for t := 0; t < calibTaps; t++ {
			acc += k.h[t] * k.g[o+t]
		}
		k.y[i] = acc
	}
	return k.y[0]
}

// calibrator measures the host's current speed with the frozen kernel
// in slices interleaved with the measured work: one kernel per P for
// parallel work, one kernel for single-threaded work such as setup.
type calibrator struct {
	kernels []*calibKernel
	slice   time.Duration
	sink    float64
	// rates holds every slice's rate in measurement order.
	rates []float64
}

func newCalibrator(slice time.Duration, procs int) *calibrator {
	c := &calibrator{slice: slice}
	for p := 0; p < procs; p++ {
		c.kernels = append(c.kernels, newCalibKernel())
	}
	return c
}

// measure runs the kernels for one slice and returns the rate in
// passes per second per kernel. Callers run it only while the program
// under test is idle.
func (c *calibrator) measure() float64 {
	var wg sync.WaitGroup
	passes := make([]int, len(c.kernels))
	sums := make([]float64, len(c.kernels))
	start := time.Now()
	deadline := start.Add(c.slice)
	for i, k := range c.kernels {
		wg.Add(1)
		go func(i int, k *calibKernel) {
			defer wg.Done()
			n, s := 0, 0.0
			for time.Now().Before(deadline) {
				for r := 0; r < 16; r++ {
					s += k.pass()
				}
				n += 16
			}
			passes[i], sums[i] = n, s
		}(i, k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0
	for i := range passes {
		total += passes[i]
		c.sink += sums[i]
	}
	rate := float64(total) / elapsed / float64(len(c.kernels))
	c.rates = append(c.rates, rate)
	return rate
}

// paced pairs measured work with the calibrator: each work slice is
// bracketed by calibration slices and converted to reference-host time
// with the mean of the two rates around it.
type paced struct {
	cal  *calibrator
	last float64
	// spent is the measured time so far in seconds: work plus the
	// calibration slices between it.
	spent float64
}

func newPaced(cal *calibrator) *paced {
	return &paced{cal: cal, last: cal.measure()}
}

// slice runs work, then calibrates, and returns the work's wall time
// and the host-speed factor (calibrator rate / reference rate) that
// applies to it: raw seconds × factor = reference-host seconds.
func (p *paced) slice(work func() error) (wall time.Duration, factor float64, err error) {
	t0 := time.Now()
	err = work()
	wall = time.Since(t0)
	// Collect the work's garbage now, so neither the calibration slice
	// nor the next work slice pays for this one's allocations.
	runtime.GC()
	after := p.cal.measure()
	factor = (p.last + after) / 2 / refCalibRate
	p.last = after
	p.spent += time.Since(t0).Seconds()
	return wall, factor, err
}
