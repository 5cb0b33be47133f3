package cs

import (
	"sync"

	"wbsn/internal/wavelet"
)

// solverScratch holds every intermediate buffer TreeIHT (tree_test.go)
// needs, so it allocates nothing in steady state beyond the returned
// signal. One scratch serves one reconstruction at a time; the Decoder
// hands them out through a sync.Pool, which is what makes a single
// Decoder safe to hammer from many goroutines at once. (FISTA draws its
// buffers from the batch pool, batchScratch.)
type solverScratch struct {
	x    []float64 // n — signal-domain work vector
	ax   []float64 // m — measurement-domain work vector
	z    []float64 // n — back-projection work vector
	grad []float64 // n — current gradient

	theta []float64 // n — iterate

	ws wavelet.Scratch // DWT ping-pong buffers

	gS      []float64 // n — support-restricted gradient
	kept    []bool    // n — tree-projection membership
	support []bool    // n — debias support
}

func newSolverScratch(n, m int) *solverScratch {
	return &solverScratch{
		x:       make([]float64, n),
		ax:      make([]float64, m),
		z:       make([]float64, n),
		grad:    make([]float64, n),
		theta:   make([]float64, n),
		gS:      make([]float64, n),
		kept:    make([]bool, n),
		support: make([]bool, n),
	}
}

func newScratchPool(n, m int) *sync.Pool {
	return &sync.Pool{New: func() any { return newSolverScratch(n, m) }}
}
