package graph

import (
	"errors"
	"math/rand"
	"testing"

	"wbsn/internal/classify"
	"wbsn/internal/cs"
	"wbsn/internal/delineation"
	"wbsn/internal/morpho"
	"wbsn/internal/telemetry"
)

// FuzzBuilder drives the builder with an arbitrary op script decoded
// from the fuzz input. The invariant under test: construction and
// compilation never panic — malformed graphs come back as ErrBuild —
// and any graph that does build can be executed without panicking.
func FuzzBuilder(f *testing.F) {
	// Seeds covering the interesting shapes: a gated analysis chain, a
	// CS chain, a raw chain, some junk, and two chained filters (refused:
	// a filter must feed the combiner) with a classifier on the combined
	// series.
	f.Add([]byte{3, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 7, 8})
	f.Add([]byte{2, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{3, 3, 3, 4, 4})
	f.Add([]byte{1, 2, 2, 3, 6, 9})

	const chunkLen = 64
	del, err := delineation.NewWaveletDelineator(delineation.Config{Fs: 256})
	if err != nil {
		f.Fatal(err)
	}
	phi, err := cs.NewSparseBinary(16, chunkLen, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	enc := cs.NewEncoder(phi)
	win := classify.BeatWindow{Before: 8, After: 8}
	rp, err := classify.NewRPMatrix(4, win.Len(), rand.New(rand.NewSource(2)))
	if err != nil {
		f.Fatal(err)
	}
	samples := map[int][][]float64{}
	rng := rand.New(rand.NewSource(3))
	for label := 0; label < 2; label++ {
		for k := 0; k < 4; k++ {
			raw := make([]float64, win.Len())
			for i := range raw {
				raw[i] = rng.NormFloat64()
			}
			z, err := rp.ProjectInto(raw, nil)
			if err != nil {
				f.Fatal(err)
			}
			samples[label] = append(samples[label], z)
		}
	}
	cls, err := classify.Train(rp, samples, classify.TrainConfig{Seed: 4})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		b := NewBuilder()
		// Start from a valid input so deeper op sequences are reachable;
		// a leading 0 byte skips it to also fuzz the no-input path.
		var v Value
		leads := 1
		if len(script) > 0 && script[0] != 0 {
			leads = int(script[0])%4 + 1
			v = b.Input(leads, chunkLen)
			script = script[1:]
		}
		for i := 0; i < len(script); i++ {
			op := script[i]
			arg := 0
			if i+1 < len(script) {
				arg = int(script[i+1])
			}
			switch op % 10 {
			case 0:
				v = b.Input(arg%5, chunkLen) // usually a duplicate-input error
			case 1:
				v = b.GateLeads(v, float64(arg%3)*128) // fs 0 is an error path
			case 2:
				// Fs 0 is an error path; the others give baseline
				// elements of 3 to 51 samples, odd and even.
				v = b.MorphFilter(v, morpho.FilterConfig{Fs: float64(arg)})
			case 3:
				v = b.CombineRMS(v)
			case 4:
				v = b.Atrous(v, arg%10)
			case 5:
				v = b.Delineate(v, del)
			case 6:
				b.Classify(v, cls, win)
			case 7:
				v = b.CSEncode(v, enc)
			case 8:
				v = b.Packetize(v)
			case 9:
				b.Lap(v, telemetry.Stage(arg%10))
			}
		}
		p, err := b.Build()
		if err != nil {
			if !errors.Is(err, ErrBuild) {
				t.Fatalf("Build returned a non-ErrBuild error: %v", err)
			}
			return
		}
		// A plan that builds must execute (NewExec runs a warm-up chunk
		// internally) and survive a real chunk plus a short flush chunk.
		e := p.NewExec()
		chunk := make([][]float64, leads)
		for li := range chunk {
			chunk[li] = make([]float64, chunkLen)
			for i := range chunk[li] {
				chunk[li][i] = float64((i+li)%7) - 3
			}
		}
		// Runtime errors are acceptable; only panics fail the fuzz.
		_, _ = e.Run(chunk, nil)
		short := make([][]float64, leads)
		for li := range short {
			short[li] = chunk[li][:chunkLen/2]
		}
		_, _ = e.Run(short, nil)
	})
}
