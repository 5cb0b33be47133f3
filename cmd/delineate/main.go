// Command delineate reproduces the paper's delineation result (Section V,
// "Text-1"): it runs the delineation node (or the morphological
// delineator) over synthetic annotated records and reports per-fiducial
// sensitivity and PPV — the paper claims "above 90% in all cases" —
// together with the embedded resource estimates (≈7% duty cycle,
// ≤7.2 kB memory).
//
// Usage:
//
//	delineate -records 5 -dur 60 -noise ambulatory -method wavelet
//	delineate -in rec.csv -ann rec.ann.csv        # external record
package main

import (
	"flag"
	"fmt"
	"os"

	"wbsn/internal/core"
	"wbsn/internal/delineation"
	"wbsn/internal/dsp"
	"wbsn/internal/ecg"
	"wbsn/internal/morpho"
	"wbsn/internal/wbsn"
)

func main() {
	var (
		records = flag.Int("records", 5, "number of synthetic records")
		dur     = flag.Float64("dur", 60, "record duration in seconds")
		noise   = flag.String("noise", "ambulatory", "noise profile: clean or ambulatory")
		method  = flag.String("method", "wavelet", "delineator: wavelet or morph")
		seed    = flag.Int64("seed", 7, "generator seed")
		in      = flag.String("in", "", "signal CSV to delineate instead of synthetic records")
		annPath = flag.String("ann", "", "annotation CSV for the external record (enables scoring)")
	)
	flag.Parse()
	fs := 256.0
	var external *ecg.Record
	if *in != "" {
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
		external = rec
		fs = rec.Fs
	}
	ncfg := ecg.CleanNoise()
	if *noise == "ambulatory" {
		ncfg = ecg.AmbulatoryNoise()
	}
	// The wavelet method is the delineation node itself; the
	// morphological delineator has no node plan and keeps its own chain.
	var delineate func(*ecg.Record) ([]delineation.BeatFiducials, error)
	switch *method {
	case "wavelet":
		delineate = nodeBeats
	case "morph":
		d, err := delineation.NewMorphDelineator(delineation.Config{Fs: fs})
		if err != nil {
			fatalf("%v", err)
		}
		delineate = func(rec *ecg.Record) ([]delineation.BeatFiducials, error) {
			leads := rec.Leads
			if *noise == "ambulatory" && external == nil {
				f, err := morpho.FilterLeads(leads, morpho.FilterConfig{Fs: fs})
				if err != nil {
					return nil, err
				}
				leads = f
			}
			return d.Delineate(dsp.CombineRMS(leads))
		}
	default:
		fatalf("unknown method %q", *method)
	}
	if external != nil {
		beats, err := delineate(external)
		if err != nil {
			fatalf("delineate: %v", err)
		}
		fmt.Printf("== %s: %d beats delineated over %.0f s ==\n", *in, len(beats), external.Duration())
		if len(external.Beats) > 0 {
			rep := delineation.Evaluate(external, beats, delineation.DefaultTolerances())
			fmt.Print(rep.String())
		}
		return
	}
	var total delineation.Report
	for i := 0; i < *records; i++ {
		rec := ecg.Generate(ecg.Config{Seed: *seed + int64(i), Duration: *dur, Noise: ncfg})
		beats, err := delineate(rec)
		if err != nil {
			fatalf("delineate: %v", err)
		}
		total = delineation.Merge(total, delineation.Evaluate(rec, beats, delineation.DefaultTolerances()))
	}
	fmt.Printf("== Delineation accuracy (%s, %s noise, %d records x %.0f s) ==\n",
		*method, *noise, *records, *dur)
	fmt.Print(total.String())
	if total.AllAbove(0.90) {
		fmt.Println("shape check PASS: all Se/PPV above the paper's 90% target")
	} else {
		fmt.Println("shape check FAIL: some fiducial below 90%")
	}

	// Embedded resource estimates (paper: 7% duty cycle, 7.2 kB memory).
	app := wbsn.App3LMMD()
	fmt.Println("\n== Embedded resource estimate ==")
	emulateResources(app)
}

// nodeBeats returns the beats a delineation node sized to rec emits.
func nodeBeats(rec *ecg.Record) ([]delineation.BeatFiducials, error) {
	node, err := core.NewNode(core.Config{Mode: core.ModeDelineation, Fs: rec.Fs, Leads: len(rec.Leads)})
	if err != nil {
		return nil, err
	}
	res, err := node.Process(rec)
	if err != nil {
		return nil, err
	}
	beats := make([]delineation.BeatFiducials, len(res.Beats))
	for i, b := range res.Beats {
		beats[i] = b.Fiducials
	}
	return beats, nil
}

func emulateResources(app wbsn.AppSpec) {
	res, err := wbsn.RunApp(app, wbsn.DefaultEnergy(), 1)
	if err != nil {
		fatalf("simulate: %v", err)
	}
	// Duty cycle at the platform's nominal few-MHz clock.
	const fNominal = 2e6
	duty := wbsn.DutyCycleAt(res.SCStats.Cycles, fNominal, 1.0)
	fmt.Printf("single-core cycles per 1 s window: %d -> duty cycle %.1f%% at %.0f MHz (paper: 7%%)\n",
		res.SCStats.Cycles, 100*duty, fNominal/1e6)
	// Memory: the simulator unrolls the per-sample kernel 256 times, so
	// the deployed code footprint is one loop body (16-bit instructions)
	// plus the transform buffers: 5 à-trous scales of 256 samples at
	// 16 bits, the input window, and the delineator's working state.
	mcProg, _, err := app.Programs()
	if err != nil {
		fatalf("%v", err)
	}
	codeBytes := 2 * (len(mcProg.Instrs) / 256) // one per-sample body, 2 B/instr
	dataBytes := 5*256*2 + 256*2 + 512
	total := float64(codeBytes+dataBytes) / 1024
	fmt.Printf("estimated memory footprint: %.1f kB code+data (paper: 7.2 kB)\n", total)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "delineate: "+format+"\n", args...)
	os.Exit(1)
}
