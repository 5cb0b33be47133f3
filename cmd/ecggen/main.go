// Command ecggen synthesises annotated multi-lead ECG records and writes
// them as CSV (signal) plus an annotation file, replacing the clinical
// databases the paper evaluates on.
//
// Usage:
//
//	ecggen -out rec.csv -ann rec.ann.csv -dur 60 -rhythm nsr -noise ambulatory -seed 1
package main

import (
	"flag"
	"fmt"
	"os"

	"wbsn/internal/ecg"
)

func main() {
	cfg, out, ann, err := parseArgs(os.Args[1:])
	if err != nil {
		fatalf("%v", err)
	}
	rec := ecg.Generate(cfg)
	if err := rec.Validate(); err != nil {
		fatalf("generated record failed validation: %v", err)
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatalf("create %s: %v", out, err)
		}
		defer f.Close()
		dst = f
	}
	if err := rec.WriteCSV(dst); err != nil {
		fatalf("write signal: %v", err)
	}
	if ann != "" {
		f, err := os.Create(ann)
		if err != nil {
			fatalf("create %s: %v", ann, err)
		}
		defer f.Close()
		if err := rec.WriteAnnotations(f); err != nil {
			fatalf("write annotations: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d leads x %d samples at %.0f Hz, %d beats\n",
		rec.Name, len(rec.Leads), rec.Len(), rec.Fs, len(rec.Beats))
}

// parseArgs parses the command line into the generator configuration
// and the signal and annotation paths. ecg.Config reads a zero or
// negative duration, rate or heart rate as "use the default", so those
// are refused here rather than silently replaced, as are a rate above
// ecg.MaxFs and ectopy probabilities outside [0, 1].
func parseArgs(args []string) (cfg ecg.Config, out, ann string, err error) {
	fl := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		outPath = fl.String("out", "", "signal CSV output path (default stdout)")
		annPath = fl.String("ann", "", "annotation CSV output path (omitted if empty)")
		dur     = fl.Float64("dur", 30, "record duration in seconds")
		fs      = fl.Float64("fs", 256, "sampling rate in Hz")
		rhythm  = fl.String("rhythm", "nsr", "rhythm: nsr or af")
		noise   = fl.String("noise", "clean", "noise profile: clean or ambulatory")
		pvc     = fl.Float64("pvc", 0, "per-beat PVC probability (nsr only)")
		apb     = fl.Float64("apb", 0, "per-beat APB probability (nsr only)")
		hr      = fl.Float64("hr", 0, "mean heart rate in bpm (0 = default)")
		seed    = fl.Int64("seed", 1, "generator seed")
	)
	fl.Parse(args)
	switch {
	case !(*dur > 0):
		return cfg, "", "", fmt.Errorf("-dur %g: want a positive duration in seconds", *dur)
	case !(*fs > 0):
		return cfg, "", "", fmt.Errorf("-fs %g: want a positive sampling rate in Hz", *fs)
	case *fs > ecg.MaxFs:
		return cfg, "", "", fmt.Errorf("-fs %g: above the %d Hz ceiling (ecg.MaxFs)", *fs, ecg.MaxFs)
	case !(*hr >= 0):
		return cfg, "", "", fmt.Errorf("-hr %g: want a non-negative heart rate (0 = default)", *hr)
	case !(*pvc >= 0 && *pvc <= 1):
		return cfg, "", "", fmt.Errorf("-pvc %g: want a probability in [0, 1]", *pvc)
	case !(*apb >= 0 && *apb <= 1):
		return cfg, "", "", fmt.Errorf("-apb %g: want a probability in [0, 1]", *apb)
	}
	cfg = ecg.Config{
		Fs:       *fs,
		Duration: *dur,
		Seed:     *seed,
		Rhythm: ecg.RhythmConfig{
			MeanHR:  *hr,
			PVCRate: *pvc,
			APBRate: *apb,
		},
	}
	switch *rhythm {
	case "nsr":
		cfg.Rhythm.Kind = ecg.RhythmNSR
	case "af":
		cfg.Rhythm.Kind = ecg.RhythmAF
	default:
		return cfg, "", "", fmt.Errorf("unknown rhythm %q (want nsr or af)", *rhythm)
	}
	switch *noise {
	case "clean":
		cfg.Noise = ecg.CleanNoise()
	case "ambulatory":
		cfg.Noise = ecg.AmbulatoryNoise()
	default:
		return cfg, "", "", fmt.Errorf("unknown noise profile %q (want clean or ambulatory)", *noise)
	}
	return cfg, *outPath, *annPath, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecggen: "+format+"\n", args...)
	os.Exit(1)
}
