package cs

// Batched (structure-of-arrays) sensing-matrix kernels. The batched
// FISTA solver applies one Φ to many planes per iteration; walking the
// index lists once per plane would reload them for every plane, so the
// batch kernels walk them once per tile of three planes: the index
// loads amortise over the tile and the three accumulators give the FP
// units independent dependency chains. Φ walks the CSR row lists and Φᵀ
// gathers each column's row list (idx), and both store each output
// once. Three is the lead count of the paper's node, and a joint
// dispatch of K windows holds 3K planes, so every dispatch is fully
// tiled at every K; other plane counts finish their last one or two
// planes through Apply/ApplyT.
//
// Bit-identity contract: per plane the accumulation order equals the
// scalar Apply/ApplyT kernels exactly (TestBatchKernelsMatchScalar).

// batchApplier is implemented by sensing matrices that can apply
// themselves across a structure-of-arrays plane set in one sweep. x/z
// buffers hold n-long stripes, y/r buffers m-long stripes; planes lists
// the stripe indices to process.
type batchApplier interface {
	applyBatch(x []float64, n int, y []float64, m int, planes []int)
	applyTBatch(r []float64, m int, z []float64, n int, planes []int)
}

// applyBatch computes y_p = Φx_p for every listed plane, walking the CSR
// row lists once per 3-plane tile.
func (s *SparseBinary) applyBatch(x []float64, n int, y []float64, m int, planes []int) {
	rowPtr, rowCols := s.rowPtr, s.rowCols
	scale := s.scale
	t := 0
	for ; t+3 <= len(planes); t += 3 {
		x0 := x[planes[t]*n : planes[t]*n+n]
		x1 := x[planes[t+1]*n : planes[t+1]*n+n]
		x2 := x[planes[t+2]*n : planes[t+2]*n+n]
		y0 := y[planes[t]*m : planes[t]*m+m]
		y1 := y[planes[t+1]*m : planes[t+1]*m+m]
		y2 := y[planes[t+2]*m : planes[t+2]*m+m]
		for i := 0; i < s.m; i++ {
			var a0, a1, a2 float64
			for _, c := range rowCols[rowPtr[i]:rowPtr[i+1]] {
				a0 += x0[c]
				a1 += x1[c]
				a2 += x2[c]
			}
			y0[i] = a0 * scale
			y1[i] = a1 * scale
			y2[i] = a2 * scale
		}
	}
	for ; t < len(planes); t++ {
		p := planes[t]
		s.Apply(x[p*n:p*n+n], y[p*m:p*m+m])
	}
}

// applyTBatch computes z_p = Φᵀr_p for every listed plane, gathering
// each column's rows once per 3-plane tile into three accumulators;
// per plane each z[c] adds its rows in ApplyT's ascending order.
func (s *SparseBinary) applyTBatch(r []float64, m int, z []float64, n int, planes []int) {
	idx, d := s.idx, s.d
	scale := s.scale
	t := 0
	for ; t+3 <= len(planes); t += 3 {
		r0 := r[planes[t]*m : planes[t]*m+m]
		r1 := r[planes[t+1]*m : planes[t+1]*m+m]
		r2 := r[planes[t+2]*m : planes[t+2]*m+m]
		z0 := z[planes[t]*n : planes[t]*n+n]
		z1 := z[planes[t+1]*n : planes[t+1]*n+n]
		z2 := z[planes[t+2]*n : planes[t+2]*n+n]
		for c := range z0 {
			var a0, a1, a2 float64
			for _, i := range idx[c*d : c*d+d] {
				a0 += r0[i]
				a1 += r1[i]
				a2 += r2[i]
			}
			z0[c] = a0 * scale
			z1[c] = a1 * scale
			z2[c] = a2 * scale
		}
	}
	for ; t < len(planes); t++ {
		p := planes[t]
		s.ApplyT(r[p*m:p*m+m], z[p*n:p*n+n])
	}
}
