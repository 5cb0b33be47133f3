package cs

import (
	"wbsn/internal/wavelet"
)

// This file implements the connected-tree recovery model of ref [17]
// (Duarte, Wakin, Baraniuk, SPARS'05), which Section IV.A describes:
// "wavelet coefficients are naturally organized into a tree structure,
// and the largest coefficients cluster along the branches of this tree.
// A CS reconstruction algorithm based on the connected tree model has
// been proposed in [17]."
//
// TreeIHT (tree_test.go) is a model-based iterative hard thresholding:
// the gradient step is followed by a projection onto
// rooted-connected-tree supports — a child detail coefficient survives
// only if its parent at the next coarser scale survives — which encodes
// the persistence of ECG wave edges across scales. No program runs it;
// BenchmarkAblationSolverVariants compares it with FISTA.

// treeStructure precomputes the parent index of every pyramid-ordered
// coefficient (approximation coefficients are roots with parent -1).
func treeStructure(n, levels int) ([]int, error) {
	slices, err := wavelet.LevelSlices(n, levels)
	if err != nil {
		return nil, err
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	// slices[0] is the approximation band; slices[1] the coarsest detail
	// band d_L, then d_{L-1}, ..., d_1. A detail coefficient's parent is
	// the coefficient at half its in-band offset in the next coarser
	// band; the coarsest details attach to the approximation band.
	for si := 2; si < len(slices); si++ {
		child := slices[si]
		par := slices[si-1]
		for i := child[0]; i < child[1]; i++ {
			off := i - child[0]
			parent[i] = par[0] + off/2
		}
	}
	if len(slices) > 1 {
		d := slices[1]
		a := slices[0]
		for i := d[0]; i < d[1]; i++ {
			parent[i] = a[0] + (i - d[0])
		}
	}
	return parent, nil
}
