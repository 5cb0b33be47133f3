package morpho

// This file implements the two-stage morphological conditioning filter of
// ref [9] (Sun, Chan, Krishnan, "ECG signal conditioning by morphological
// filtering", Computers in Biology and Medicine 2002), the filtering
// strategy Section III.B of the paper describes as "a filtering technique
// based on the application of two morphological operators (erosion and
// dilation), which removes unwanted components from the input signal".
//
// Stage 1 — baseline correction: the baseline is estimated by an opening
// followed by a closing with structuring elements sized to straddle the
// characteristic-wave durations (l0 ≈ 0.2·fs suppresses QRS and P/T
// peaks, lc = 1.5·l0 closes the remaining pits) and subtracted.
//
// Stage 2 — noise suppression: the corrected signal is filtered by the
// average of an opening and a closing with a 3-sample element, which
// clips impulsive noise in both polarities while preserving wave
// morphology.
//
// Written out, the two stages are eight flat passes per lead: erode and
// dilate with l0, dilate and erode with lc, then erode-dilate and
// dilate-erode with 3. The kernel runs four:
//
//   - The opening's dilation and the closing's dilation compose into one
//     dilation over l0+lc−1 samples whose window starts l0/2+lc/2
//     samples before its output (the two half-widths summed; with an
//     even l0 that is not the centred half of the composed length).
//     Under edge replication the composed window covers exactly the
//     union of the two-step windows, and both forms forward the latest
//     of its maximal samples, so the result is bit-identical.
//   - The erosions with l0 and lc and the composed dilation stay on the
//     monotonic wedge: a van Herk/Gil-Werman prototype on the builtin
//     min took 9–13 µs per 1,024 samples at l0 = 51 against the wedge's
//     5–7 µs (2-vCPU Xeon), its running-minimum chains latency-bound.
//   - The 3-sample open/close average reads the corrected signal at
//     i−2..i+2 only, so it is one stencil pass over the builtin min and
//     max (min3 and max3 below), fused with the baseline subtraction.
//
// Every output equals the eight-pass schedule's bit for bit on finite
// input; filter_oracle_test.go keeps that schedule as the frozen oracle.

// FilterConfig parameterises the morphological conditioning filter.
type FilterConfig struct {
	// Fs is the sampling rate in Hz. Required.
	Fs float64
}

// baselineSE returns l0, the baseline opening's structuring-element
// length in samples: 0.2·Fs rounded (ref [9]), at least 3. The closing's
// element is lc = l0 + l0/2.
func (c FilterConfig) baselineSE() int {
	l0 := int(0.2*c.Fs + 0.5)
	if l0 < 3 {
		return 3
	}
	return l0
}

// FilterLeads applies the conditioning filter (FilterInto) independently
// to every lead — the 3L-MF multi-lead workload. Lead lengths may differ.
func FilterLeads(leads [][]float64, cfg FilterConfig) ([][]float64, error) {
	var s Scratch
	return FilterLeadsInto(leads, cfg, nil, &s)
}

// FilterInto runs the full two-stage conditioning filter (baseline
// correction then noise suppression) into out (len(x)), allocation-free
// with a warm scratch. This is the "3L-MF" kernel of Figure 7 when
// applied to each of the three leads. out may alias x.
func FilterInto(x []float64, cfg FilterConfig, out []float64, s *Scratch) error {
	n := len(x)
	return ConditionInto(x, cfg, out, s.buffer(0, n), s.buffer(1, n), s)
}

// ConditionInto is the per-lead conditioning kernel behind FilterInto,
// with caller-owned work buffers base and work (len(x) each), for
// callers that plan their own chunk memory. It writes the filtered lead
// into out (len(x)) and leaves the baseline estimate in base. out may
// alias x or work; base and work must alias neither x nor each other.
// The wedge's candidate buffers come from s.
func ConditionInto(x []float64, cfg FilterConfig, out, base, work []float64, s *Scratch) error {
	n := len(x)
	if len(out) != n || len(base) != n || len(work) != n {
		return ErrBadSE
	}
	if n == 0 {
		return nil
	}
	// Opening with l0 then closing with lc; the two dilations run as one
	// (see the file comment). Every length is at least 1 and every
	// buffer is len(x), so the passes cannot fail.
	l0 := cfg.baselineSE()
	lc := l0 + l0/2
	_ = slidingMinInto(x, l0, l0/2, base, s)
	_ = slidingMaxInto(base, l0+lc-1, l0/2+lc/2, work, s)
	_ = slidingMinInto(work, lc, lc/2, base, s)
	noiseInto(x, base, out)
	return nil
}

// noiseInto writes the 3-sample open/close average of c = x − base into
// out (len(x) ≥ 1): out[i] = (open(c)[i] + close(c)[i])/2, where the
// opening is a 3-sample dilation of the 3-sample erosion e and the
// closing a 3-sample erosion of the 3-sample dilation d, each pass
// replicating its own input's edge samples as the wedge does. It rolls
// c, e and d through registers; every x[j] is read before out[j-2] is
// written, so out may alias x.
func noiseInto(x, base, out []float64) {
	n := len(x)
	base, out = base[:n], out[:n]
	ca := x[0] - base[0] // c[j-2]
	cb := ca             // c[j-1], clamped
	if n > 1 {
		cb = x[1] - base[1]
	}
	// e[0] and d[0] over (c[-1], c[0], c[1]) with c[-1] = c[0]; the
	// second passes replicate e[0] and d[0] as e[-1] and d[-1].
	ec, dc := min3(ca, ca, cb), max3(ca, ca, cb)
	ep, dp := ec, dc
	for j := 2; j < n; j++ {
		cc := x[j] - base[j]
		en, dn := min3(ca, cb, cc), max3(ca, cb, cc)
		out[j-2] = 0.5 * (max3(ep, ec, en) + min3(dp, dc, dn))
		ca, cb = cb, cc
		ep, ec, dp, dc = ec, en, dc, dn
	}
	if n > 1 {
		// c[n] = c[n-1].
		en, dn := min3(ca, cb, cb), max3(ca, cb, cb)
		out[n-2] = 0.5 * (max3(ep, ec, en) + min3(dp, dc, dn))
		ep, ec, dp, dc = ec, en, dc, dn
	}
	// e[n] = e[n-1] and d[n] = d[n-1].
	out[n-1] = 0.5 * (max3(ep, ec, ec) + min3(dp, dc, dc))
}

// min3 returns the minimum of a, b, c (in window order) as the wedge
// forwards it: the latest of the equal minimal samples. The builtin min
// orders −0 below +0, so a zero result is re-chosen from the window.
func min3(a, b, c float64) float64 {
	m := min(a, b, c)
	if m == 0 {
		if c == 0 {
			return c
		}
		if b == 0 {
			return b
		}
		return a
	}
	return m
}

// max3 is min3's twin for the maximum (the builtin max orders +0 above
// −0).
func max3(a, b, c float64) float64 {
	m := max(a, b, c)
	if m == 0 {
		if c == 0 {
			return c
		}
		if b == 0 {
			return b
		}
		return a
	}
	return m
}

// FilterLeadsInto is FilterLeads reusing out's backing storage when its
// capacity suffices. It returns the (possibly regrown) lead set.
func FilterLeadsInto(leads [][]float64, cfg FilterConfig, out [][]float64, s *Scratch) ([][]float64, error) {
	if cap(out) < len(leads) {
		grown := make([][]float64, len(leads))
		copy(grown, out)
		out = grown
	}
	out = out[:len(leads)]
	for i, l := range leads {
		if cap(out[i]) < len(l) {
			out[i] = make([]float64, len(l))
		}
		out[i] = out[i][:len(l)]
		if err := FilterInto(l, cfg, out[i], s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
