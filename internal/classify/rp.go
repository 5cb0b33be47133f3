// Package classify implements the embedded heartbeat classifier of
// ref [14] (Braojos et al., DATE 2013) described in Sections III.D and
// IV.A of the paper: beats are reduced to a small feature vector by a
// random projection whose matrix contains only {−1, 0, +1} (Achlioptas,
// ref [15]) packed two bits per entry, and classified by a neuro-fuzzy
// network of Gaussian prototypes whose exponentials are evaluated with
// the four-segment linearization from internal/fixedpt.
package classify

import (
	"errors"
	"math"
	"math/rand"
)

// Errors returned by the classification package.
var (
	ErrRPDims    = errors.New("classify: projection dimensions must be positive")
	ErrBadInput  = errors.New("classify: input length mismatch")
	ErrNoturn    = errors.New("classify: classifier has not been trained")
	ErrNoSamples = errors.New("classify: training requires samples of every class")
)

// RPMatrix is a k×n Achlioptas random projection: entries take the value
// +1 with probability 1/6, −1 with probability 1/6 and 0 otherwise, and
// the projection is scaled by √(3/k) (ref [15] shows this sparse scheme
// satisfies the Johnson–Lindenstrauss property). Entries are stored
// packed at two bits each — the memory optimisation Section IV.A calls
// out ("a projection matrix only composed by elements of value 0, 1 and
// −1, which can be represented using only two bits per component").
type RPMatrix struct {
	k, n  int
	bits  []uint64 // 2-bit entries, row-major: 00 zero, 01 +1, 10 −1
	scale float64
}

// NewRPMatrix draws a k×n sparse random projection from rng.
func NewRPMatrix(k, n int, rng *rand.Rand) (*RPMatrix, error) {
	if k <= 0 || n <= 0 {
		return nil, ErrRPDims
	}
	total := k * n
	m := &RPMatrix{k: k, n: n, bits: make([]uint64, (total+31)/32), scale: math.Sqrt(3 / float64(k))}
	for i := 0; i < total; i++ {
		u := rng.Float64()
		var code uint64
		switch {
		case u < 1.0/6:
			code = 1 // +1
		case u < 2.0/6:
			code = 2 // −1
		default:
			code = 0
		}
		m.bits[i/32] |= code << uint((i%32)*2)
	}
	return m, nil
}

// entry returns the {−1,0,+1} value at row r, column c.
func (m *RPMatrix) entry(r, c int) int {
	i := r*m.n + c
	code := (m.bits[i/32] >> uint((i%32)*2)) & 3
	switch code {
	case 1:
		return 1
	case 2:
		return -1
	default:
		return 0
	}
}

// Project computes z = (√(3/k))·R·x. It returns ErrBadInput if len(x)
// differs from the input dimension.
func (m *RPMatrix) Project(x []float64) ([]float64, error) {
	return m.ProjectInto(x, nil)
}

// ProjectInto is Project writing into z, which is reused when its
// capacity suffices and grown otherwise — allocation-free with a warm
// buffer. It returns the (possibly regrown) feature vector.
func (m *RPMatrix) ProjectInto(x, z []float64) ([]float64, error) {
	if len(x) != m.n {
		return nil, ErrBadInput
	}
	if cap(z) < m.k {
		z = make([]float64, m.k)
	}
	z = z[:m.k]
	for r := 0; r < m.k; r++ {
		acc := 0.0
		base := r * m.n
		for c := 0; c < m.n; c++ {
			i := base + c
			code := (m.bits[i/32] >> uint((i%32)*2)) & 3
			switch code {
			case 1:
				acc += x[c]
			case 2:
				acc -= x[c]
			}
		}
		z[r] = acc * m.scale
	}
	return z, nil
}

// AddsPerProjection counts the additions/subtractions one projection
// performs (the non-zero entries), feeding the energy model.
func (m *RPMatrix) AddsPerProjection() int {
	count := 0
	for r := 0; r < m.k; r++ {
		for c := 0; c < m.n; c++ {
			if m.entry(r, c) != 0 {
				count++
			}
		}
	}
	return count
}
