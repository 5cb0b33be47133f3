// Command delineate reproduces the paper's delineation result (Section V,
// "Text-1"): it runs the delineation node over synthetic annotated
// records and reports per-fiducial sensitivity and PPV — the paper
// claims "above 90% in all cases" — together with the embedded resource
// estimates (≈7% duty cycle, ≤7.2 kB memory). It exits 1 when the shape
// check fails. With -in it delineates an external record instead, by the
// node or by the morphological delineator, and scores it when -ann gives
// its annotations.
//
// Usage:
//
//	delineate                                     # Text-1
//	delineate -in rec.csv -ann rec.ann.csv        # external record
//	delineate -in rec.csv -method morph
package main

import (
	"flag"
	"fmt"
	"os"

	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
	"wbsn/internal/paper"
)

func main() {
	var (
		method  = flag.String("method", "wavelet", "delineator for -in: wavelet (the delineation node) or morph")
		in      = flag.String("in", "", "signal CSV to delineate instead of the Text-1 records")
		annPath = flag.String("ann", "", "annotation CSV for the external record (enables scoring)")
	)
	flag.Parse()
	if *in == "" {
		if *method != "wavelet" {
			fatalf("-method %s needs -in: Text-1 scores the delineation node", *method)
		}
		if err := paper.Print(paper.Text1()); err != nil {
			fatalf("%v", err)
		}
		return
	}
	f, err := os.Open(*in)
	if err != nil {
		fatalf("open %s: %v", *in, err)
	}
	rec, err := ecg.ReadCSV(f)
	f.Close()
	if err != nil {
		fatalf("read %s: %v", *in, err)
	}
	if *annPath != "" {
		af, err := os.Open(*annPath)
		if err != nil {
			fatalf("open %s: %v", *annPath, err)
		}
		if err := rec.ReadAnnotations(af); err != nil {
			fatalf("read %s: %v", *annPath, err)
		}
		af.Close()
	}
	// The wavelet method is the delineation node itself; the
	// morphological delineator has no node plan and keeps its own chain.
	var beats []delineation.BeatFiducials
	switch *method {
	case "wavelet":
		beats, err = paper.NodeBeats(rec)
	case "morph":
		beats, err = morphBeats(rec)
	default:
		fatalf("unknown method %q", *method)
	}
	if err != nil {
		fatalf("delineate: %v", err)
	}
	fmt.Printf("== %s: %d beats delineated over %.0f s ==\n", *in, len(beats), rec.Duration())
	if len(rec.Beats) > 0 {
		rep := delineation.Evaluate(rec, beats, delineation.DefaultTolerances())
		fmt.Print(rep.String())
	}
}

// morphBeats runs the morphological delineator over a record
// conditioned as the node conditions its chunks: the morphological
// filter on every lead, then the RMS lead combination.
func morphBeats(rec *ecg.Record) ([]delineation.BeatFiducials, error) {
	d, err := delineation.NewMorphDelineator(delineation.Config{Fs: rec.Fs})
	if err != nil {
		return nil, err
	}
	filtered, err := morpho.FilterLeads(rec.Leads, morpho.FilterConfig{Fs: rec.Fs})
	if err != nil {
		return nil, err
	}
	return d.Delineate(dsp.CombineRMS(filtered))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "delineate: "+format+"\n", args...)
	os.Exit(1)
}
