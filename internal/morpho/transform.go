package morpho

// This file implements the multiscale morphological-derivative (MMD)
// transform of ref [13] (Sun, Chan, Krishnan, "Characteristic wave
// detection in ECG signal using morphological transform", BMC
// Cardiovascular Disorders 2005), the alternative delineation strategy of
// Section III.C: "minima in the transformed signal indicate the presence
// of peaks in the original wave, while maxima (or sudden changes in
// slope) delimit the start and end point of each wave".
//
// The transform at scale s is the scaled morphological Laplacian
//
//	M_s(x)[i] = (dilation_s(x)[i] + erosion_s(x)[i] - 2*x[i]) / s
//
// with a flat structuring element of length 2s+1: at a sharp positive
// peak the dilation equals the sample itself while the erosion drops,
// giving a deep negative minimum; at a wave onset/offset the erosion
// stays at the baseline while the dilation already sees the wave, giving
// a positive maximum. Note this needs exactly the window maximum, window
// minimum and centre value — the three quantities the paper's embedded
// optimisation tracks.

// MMDTransform computes the morphological derivative of x at scale s
// (s >= 1, in samples). Output has the same length as x; the s samples at
// each border are computed with edge replication.
func MMDTransform(x []float64, s int) ([]float64, error) {
	if s < 1 {
		return nil, ErrBadSE
	}
	n := len(x)
	dil, err := DilateFlat(x, 2*s+1)
	if err != nil {
		return nil, err
	}
	ero, err := ErodeFlat(x, 2*s+1)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	inv := 1 / float64(s)
	for i := 0; i < n; i++ {
		out[i] = (dil[i] + ero[i] - 2*x[i]) * inv
	}
	return out, nil
}
