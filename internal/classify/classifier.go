package classify

import (
	"math"
	"math/rand"

	"wbsn/internal/fixedpt"
)

// Prototype is one Gaussian kernel of the neuro-fuzzy classifier: a
// centroid in feature space with an isotropic width.
type Prototype struct {
	Center []float64
	// InvTwoSigma2 is 1/(2σ²), precomputed for the distance scaling.
	InvTwoSigma2 float64
}

// Classifier is the neuro-fuzzy heartbeat classifier of ref [14]: each
// class holds a small set of Gaussian prototypes (learned by k-means on
// projected training beats); a beat's membership in a class is the
// maximum kernel response over the class's prototypes, and the predicted
// class is the one with the largest membership.
type Classifier struct {
	rp      *RPMatrix
	classes []int // class labels, ascending: the training order
	protos  map[int][]Prototype
	// UseLinExp selects the embedded four-segment exponential instead of
	// math.Exp (the Section IV.A approximation).
	UseLinExp bool
}

// TrainConfig parameterises classifier training.
type TrainConfig struct {
	// PrototypesPerClass is the k-means cluster count per class
	// (default 3).
	PrototypesPerClass int
	// KMeansIters bounds the Lloyd iterations (default 25).
	KMeansIters int
	// Seed drives k-means initialisation.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	out := c
	if out.PrototypesPerClass <= 0 {
		out.PrototypesPerClass = 3
	}
	if out.KMeansIters <= 0 {
		out.KMeansIters = 25
	}
	return out
}

// Train learns prototypes from projected feature vectors. samples maps a
// class label to that class's feature vectors (already projected). Every
// class must have at least one sample.
func Train(rp *RPMatrix, samples map[int][][]float64, cfg TrainConfig) (*Classifier, error) {
	c := cfg.withDefaults()
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	cl := &Classifier{rp: rp, protos: make(map[int][]Prototype)}
	// Train the classes in label order: k-means draws every class's seeds
	// from the one rng, so a fixed order makes the classifier a function
	// of its seed.
	for label := range samples {
		cl.classes = append(cl.classes, label)
	}
	for i := 1; i < len(cl.classes); i++ {
		for j := i; j > 0 && cl.classes[j] < cl.classes[j-1]; j-- {
			cl.classes[j], cl.classes[j-1] = cl.classes[j-1], cl.classes[j]
		}
	}
	rng := rand.New(rand.NewSource(c.Seed + 99))
	for _, label := range cl.classes {
		vecs := samples[label]
		if len(vecs) == 0 {
			return nil, ErrNoSamples
		}
		k := c.PrototypesPerClass
		if k > len(vecs) {
			k = len(vecs)
		}
		centers, assign := kMeans(vecs, k, c.KMeansIters, rng)
		// Class-level spread: RMS distance of the class's vectors to
		// their own centroid, used as a floor so sparse clusters do not
		// degenerate into needle kernels whose response underflows.
		classMean := make([]float64, len(vecs[0]))
		for _, v := range vecs {
			for j, x := range v {
				classMean[j] += x
			}
		}
		for j := range classMean {
			classMean[j] /= float64(len(vecs))
		}
		classVar := 0.0
		for _, v := range vecs {
			classVar += sqDist(v, classMean)
		}
		classSigma := math.Sqrt(classVar / float64(len(vecs)))
		if classSigma == 0 {
			classSigma = 0.1
		}
		// σ per prototype: mean distance of its members, floored at half
		// the class spread.
		for ci, ctr := range centers {
			sum, cnt := 0.0, 0
			for vi, a := range assign {
				if a == ci {
					sum += math.Sqrt(sqDist(vecs[vi], ctr))
					cnt++
				}
			}
			sigma := 0.5 * classSigma
			if cnt > 0 && sum > 0 {
				if s := sum / float64(cnt); s > sigma {
					sigma = s
				}
			}
			cl.protos[label] = append(cl.protos[label], Prototype{
				Center:       ctr,
				InvTwoSigma2: 1 / (2 * sigma * sigma),
			})
		}
	}
	return cl, nil
}

// RP returns the classifier's random-projection front end.
func (c *Classifier) RP() *RPMatrix { return c.rp }

// kernel evaluates exp(-u) through the configured path.
func (c *Classifier) kernel(u float64) float64 {
	if c.UseLinExp {
		return fixedpt.ExpNegLin4(u)
	}
	return math.Exp(-u)
}

// PredictProjected classifies an already-projected feature vector. When
// every kernel response underflows (the linearized exponential truncates
// at 4σ, so a far-off beat can score zero in every class) the decision
// falls back to the nearest prototype in scaled-distance terms — the
// same argmax the exact exponential would produce. The hot path is
// allocation-free: memberships are folded into the argmax directly
// instead of materialising the Memberships map.
func (c *Classifier) PredictProjected(z []float64) (label int, membership float64, err error) {
	if len(c.classes) == 0 {
		return 0, 0, ErrNoturn
	}
	bestLabel, bestVal := c.classes[0], -1.0
	for _, l := range c.classes {
		best := 0.0
		for _, p := range c.protos[l] {
			u := sqDist(z, p.Center) * p.InvTwoSigma2
			if v := c.kernel(u); v > best {
				best = v
			}
		}
		if best > bestVal {
			bestLabel, bestVal = l, best
		}
	}
	if bestVal > 0 {
		return bestLabel, bestVal, nil
	}
	// Underflow fallback: minimal scaled squared distance.
	bestU := math.Inf(1)
	for _, l := range c.classes {
		for _, p := range c.protos[l] {
			if u := sqDist(z, p.Center) * p.InvTwoSigma2; u < bestU {
				bestU, bestLabel = u, l
			}
		}
	}
	return bestLabel, 0, nil
}

// sqDist returns squared Euclidean distance (panics on length mismatch
// via index bounds, which cannot happen for vectors from one projection).
func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// kMeans is Lloyd's algorithm with k-means++-style seeding from rng.
// It returns the centroids and the final assignment of each vector.
func kMeans(vecs [][]float64, k, iters int, rng *rand.Rand) ([][]float64, []int) {
	n := len(vecs)
	dim := len(vecs[0])
	centers := make([][]float64, 0, k)
	// Seeding: first centre uniform, others proportional to squared
	// distance from the nearest existing centre.
	first := rng.Intn(n)
	centers = append(centers, append([]float64(nil), vecs[first]...))
	d2 := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centres; duplicate one.
			centers = append(centers, append([]float64(nil), vecs[rng.Intn(n)]...))
			continue
		}
		u := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			u -= d
			if u <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), vecs[idx]...))
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centers {
				if d := sqDist(v, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, len(centers))
		sums := make([][]float64, len(centers))
		for ci := range sums {
			sums[ci] = make([]float64, dim)
		}
		for i, v := range vecs {
			counts[assign[i]]++
			for j, x := range v {
				sums[assign[i]][j] += x
			}
		}
		for ci := range centers {
			if counts[ci] == 0 {
				continue
			}
			inv := 1 / float64(counts[ci])
			for j := range centers[ci] {
				centers[ci][j] = sums[ci][j] * inv
			}
		}
		if !changed {
			break
		}
	}
	return centers, assign
}
