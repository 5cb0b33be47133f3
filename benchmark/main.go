// Command wbsnbench is the repository's end-to-end benchmark. It drives
// the program through its public APIs on one of three workloads, checks
// the outputs, and prints every metric BENCHMARK.json names for that
// mode as the last line of standard output:
//
//	bash benchmark/run.sh --workload fleet-cs-lossy --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs
// the same seed again with spans around every call into a layer and
// prints the per-layer ledger. Time-based metrics are host-normalised
// by an interleaved calibration kernel (calib.go); quality, energy and
// count metrics are exact and repeat bit for bit for a fixed seed.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// params are one invocation's settings.
type params struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run reports: operations attempted and
// failed (a failed correctness gate counts as a failed operation), and
// its metrics by name. Units live in BENCHMARK.json.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Printf("FAIL: "+format+"\n", args...)
}

type workload struct {
	name string
	run  func(params) (*outcome, error)
}

var workloads = []workload{
	{"fleet-cs-lossy", fleetCSLossy.run},
	{"fleet-delineation", fleetDelineation.run},
	{"netgw-cold2", runNetGW},
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	if err := run(*name, params{seed: *seed, seconds: *seconds, trace: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "wbsnbench:", err)
		os.Exit(1)
	}
}

func run(name string, p params) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read metric definitions: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if p.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	fmt.Printf("%s: seed %d, %.0f s, trace %v, GOMAXPROCS %d\n", name, p.seed, p.seconds, p.trace, runtime.GOMAXPROCS(0))
	out, err := w.run(p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	want := spec.EndToEnd
	if p.trace {
		want = spec.PerLayer
	}
	rep := report{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, m.Name, v)
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for k := range out.metrics {
		if _, ok := rep.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s measured metrics BENCHMARK.json does not define: %v", name, extra)
	}
	if rep.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", name)
	}
	rep.Correct = rep.Failed == 0
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printRaw prints the audit line beside the normalised metrics: every †
// metric's raw value, plus the calibrator's median rate and its own
// spread over the run's slices.
func printRaw(raw map[string]float64, cal *calibrator, work string) {
	raw["calib_rate"] = median(cal.rates)
	raw["calib_spread"] = spread(cal.rates)
	b, err := json.Marshal(raw)
	if err != nil {
		b = []byte(err.Error())
	}
	fmt.Printf("measured: %s, %d calibration slices\n", work, len(cal.rates))
	fmt.Printf("raw: %s\n", b)
}

// liveHeap forces collection twice — the second empties the sync.Pool
// victim caches the first one kept — and samples the heap.
func liveHeap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}
