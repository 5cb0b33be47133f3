package cs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

// prdBudget is the contract through which a path that gives up bit
// identity with its reference is accepted: on fixed scoring records,
// the candidate's reconstruction PRD may exceed the reference's by at
// most MeanPP percentage points on average and by MaxPP on any one
// record. A failure prints the per-record table.
type prdBudget struct {
	MeanPP, MaxPP float64
	Records       []scoringRecord
}

// scoringRecord is one fixed record a budget scores on.
type scoringRecord struct {
	Name string
	Rec  *ecg.Record
}

// cohortRecords returns one fixed 8 s, 3-lead record per class of the
// benchmark's patient cohort: AF rhythm, ambulatory noise, and the
// congested-radio and bursty-baseline classes, whose signals are clean
// sinus rhythm (they differ from each other only in the radio channel).
func cohortRecords() []scoringRecord {
	gen := func(name string, seed int64, mut func(*ecg.Config)) scoringRecord {
		cfg := ecg.Config{Seed: seed, Duration: 8}
		if mut != nil {
			mut(&cfg)
		}
		return scoringRecord{name, ecg.Generate(cfg)}
	}
	return []scoringRecord{
		gen("af", 201, func(c *ecg.Config) { c.Rhythm.Kind = ecg.RhythmAF }),
		gen("ambulatory-noise", 202, func(c *ecg.Config) { c.Noise = ecg.AmbulatoryNoise() }),
		gen("congested-radio", 203, nil),
		gen("bursty-baseline", 204, nil),
	}
}

// check scores the reference and the candidate reconstruction of every
// record and fails t, printing the per-record table, when the
// candidate breaks the budget.
func (b prdBudget) check(t *testing.T, ref, cand func(*ecg.Record) [][]float64) {
	t.Helper()
	var tab strings.Builder
	fmt.Fprintf(&tab, "%-18s %10s %10s %9s\n", "record", "ref PRD%", "cand PRD%", "delta pp")
	sum, worst := 0.0, math.Inf(-1)
	for _, r := range b.Records {
		pr, pc := recordPRD(r.Rec, ref(r.Rec)), recordPRD(r.Rec, cand(r.Rec))
		sum += pc - pr
		worst = max(worst, pc-pr)
		fmt.Fprintf(&tab, "%-18s %10.4f %10.4f %+9.4f\n", r.Name, pr, pc, pc-pr)
	}
	mean := sum / float64(len(b.Records))
	fmt.Fprintf(&tab, "mean %+.4f pp (budget %+.2f), worst %+.4f pp (budget %+.2f)\n", mean, b.MeanPP, worst, b.MaxPP)
	if !(mean <= b.MeanPP && worst <= b.MaxPP) {
		t.Fatalf("PRD budget exceeded:\n%s", tab.String())
	}
	t.Logf("PRD budget held:\n%s", tab.String())
}

// recordPRD is the percent RMS difference between a record's leads and
// their reconstruction over the reconstructed span, all leads pooled.
func recordPRD(rec *ecg.Record, xhat [][]float64) float64 {
	var num, den float64
	for li, l := range xhat {
		for i, v := range l {
			x := rec.Leads[li][i]
			num += (x - v) * (x - v)
			den += x * x
		}
	}
	return 100 * math.Sqrt(num/den)
}

// reconstructRecord cuts a record into consecutive n-sample windows
// across its leads, solves each window's measurements and returns the
// reconstructed leads over the windowed span.
func reconstructRecord(t *testing.T, rec *ecg.Record, n int, solve func(win [][]float64) ([][]float64, error)) [][]float64 {
	t.Helper()
	out := make([][]float64, len(rec.Leads))
	for at := 0; at+n <= rec.Len(); at += n {
		win := make([][]float64, len(rec.Leads))
		for li, l := range rec.Leads {
			win[li] = l[at : at+n]
		}
		xs, err := solve(win)
		if err != nil {
			t.Fatal(err)
		}
		for li := range out {
			out[li] = append(out[li], xs[li]...)
		}
	}
	return out
}

// TestWirePathPRDBudget accepts the node's integer CS stage and 12-bit
// radio codes through the PRD budget: reconstructions from the
// measurements the wire delivers (Q15 front end, EncodeQ15, the radio
// grid, link.Encode and link.Decode) against reconstructions from the
// float encoder's measurements, both decoded by the same cold
// fixed-budget joint solver at the paper's CR 60 over 3 leads.
func TestWirePathPRDBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("32 joint reconstructions of 300 iterations; too slow under -race")
	}
	const n = 512
	m := MeasurementsForCR(n, 60)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(phi)
	dec, err := NewDecoder(phi, SolverConfig{Iters: 300})
	if err != nil {
		t.Fatal(err)
	}
	decode := func(measure func([][]float64) [][]float64) func(*ecg.Record) [][]float64 {
		return func(rec *ecg.Record) [][]float64 {
			return reconstructRecord(t, rec, n, func(win [][]float64) ([][]float64, error) {
				return dec.ReconstructJoint(measure(win))
			})
		}
	}
	wire := func(win [][]float64) [][]float64 {
		ys := enc.EncodeLeadsQ15(win)
		for _, y := range ys {
			if err := link.QuantizeLead(y); err != nil {
				t.Fatal(err)
			}
		}
		frame, err := link.Encode(link.Packet{Measurements: ys})
		if err != nil {
			t.Fatal(err)
		}
		p, err := link.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return p.Measurements
	}
	budget := prdBudget{MeanPP: 0.1, MaxPP: 0.5, Records: cohortRecords()}
	budget.check(t, decode(enc.EncodeLeads), decode(wire))
}

// TestSingleLeadPRDBudget accepts single-lead CS as a one-lead joint
// solve through the PRD budget. ReconstructLeads solves each lead's
// unit-RMS measurements under a one-lead ℓ2,1 penalty, which is the ℓ1
// norm, so it solves the same problem as the frozen ℓ1 oracle
// refReconstructLeads without its bit identity. Both decode every
// record with per-lead sensing matrices and Figure 5's solver (150
// iterations, 2 reweighting passes) at CR 60 and at the paper's two
// Figure 5 crossings, 65.9 and 72.7.
func TestSingleLeadPRDBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("per-lead scalar-oracle reconstructions at three CRs; too slow under -race")
	}
	const n = 512
	budget := prdBudget{MeanPP: 0.1, MaxPP: 0.5, Records: cohortRecords()}
	for _, cr := range []float64{60, 65.9, 72.7} {
		t.Run(fmt.Sprintf("CR%.1f", cr), func(t *testing.T) {
			m := MeasurementsForCR(n, cr)
			rng := rand.New(rand.NewSource(12))
			phis := make([]Matrix, 3)
			encs := make([]*Encoder, 3)
			for l := range phis {
				phi, err := NewSparseBinary(m, n, Density, rng)
				if err != nil {
					t.Fatal(err)
				}
				phis[l], encs[l] = phi, NewEncoder(phi)
			}
			dec, err := NewJointDecoder(phis, SolverConfig{Iters: 150, Reweights: 2})
			if err != nil {
				t.Fatal(err)
			}
			decode := func(solve func([][]float64) ([][]float64, error)) func(*ecg.Record) [][]float64 {
				return func(rec *ecg.Record) [][]float64 {
					return reconstructRecord(t, rec, n, func(win [][]float64) ([][]float64, error) {
						ys := make([][]float64, len(win))
						for li, x := range win {
							ys[li] = encs[li].Encode(x)
						}
						return solve(ys)
					})
				}
			}
			budget.check(t, decode(dec.refReconstructLeads), decode(dec.ReconstructLeads))
		})
	}
}
