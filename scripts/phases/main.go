// Command phases prints where the benchmark binary's calibration and
// hot kernels sit relative to 64-byte boundaries. A loop's speed can
// hinge on its alignment: the calibration kernel main.(*calibKernel).pass
// runs 12–25% faster at 0 mod 64 than at 32 mod 64, and the sensing
// kernels' phase moves the decoder's setup time. A change that shifts
// the code linked before a kernel by an odd multiple of 32 bytes flips
// its phase and moves time metrics without moving any work, so paired
// benchmark runs report these phases beside their numbers.
//
// It builds the benchmark binary as benchmark/run.sh does (go build
// -buildvcs=false in the benchmark module, plain flags), reads its
// symbol table with go tool nm and prints one line per kernel:
//
//	32 0x6074e0   448 main.(*calibKernel).pass
//
// that is, the address mod 64, the address, the size in bytes and the
// name. Run it from a repository root; an argument names another
// checkout to build instead (for example a copy of the parent commit):
//
//	go run ./scripts/phases [root]
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// kernels are the functions whose phase is reported, in output order:
// the calibration kernel and its driver, the decoder's sensing and
// wavelet kernels, and the node kernels of the delineation workload.
var kernels = []string{
	"main.(*calibKernel).pass",
	"main.(*calibrator).measure",
	"main.(*calibrator).measure.func1",
	"wbsn/internal/cs.(*SparseBinary).Apply",
	"wbsn/internal/cs.(*SparseBinary).ApplyT",
	"wbsn/internal/cs.(*SparseBinary).applyBatch",
	"wbsn/internal/cs.(*SparseBinary).applyTBatch",
	"wbsn/internal/cs.(*Decoder).stepJoint",
	"wbsn/internal/wavelet.(*Orthogonal).analyzeOne",
	"wbsn/internal/wavelet.(*Orthogonal).synthesizeOne",
	"wbsn/internal/wavelet.AtrousInto",
	"wbsn/internal/dsp.CombineRMSInto",
	"wbsn/internal/morpho.slidingMinInto",
	"wbsn/internal/morpho.slidingMaxInto",
	"wbsn/internal/morpho.noiseInto",
	"wbsn/internal/graph.(*Exec).runFilterCombine",
	"wbsn/internal/delineation.(*WaveletDelineator).DelineateCoeffs",
	"wbsn/internal/delineation.(*WaveletDelineator).detectQRS",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err != nil {
		fail("%s is not a repository root: %v", root, err)
	}
	dir, err := os.MkdirTemp("", "phases")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "wbsnbench")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	build.Dir = filepath.Join(root, "benchmark")
	build.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fail("building the benchmark: %v", err)
	}
	out, err := exec.Command("go", "tool", "nm", "-size", bin).Output()
	if err != nil {
		fail("go tool nm: %v", err)
	}
	type sym struct{ addr, size uint64 }
	syms := map[string]sym{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// address size type name; the name may contain spaces.
		f := strings.Fields(sc.Text())
		if len(f) < 4 || (f[2] != "T" && f[2] != "t") {
			continue
		}
		addr, err1 := strconv.ParseUint(f[0], 16, 64)
		size, err2 := strconv.ParseUint(f[1], 10, 64)
		if err1 == nil && err2 == nil {
			syms[strings.Join(f[3:], " ")] = sym{addr, size}
		}
	}
	if err := sc.Err(); err != nil {
		fail("%v", err)
	}
	w := bufio.NewWriter(os.Stdout)
	for _, k := range kernels {
		s, ok := syms[k]
		if !ok {
			fmt.Fprintf(w, " - %10s %5s %s (not linked)\n", "-", "-", k)
			continue
		}
		fmt.Fprintf(w, "%2d %#10x %5d %s\n", s.addr%64, s.addr, s.size, k)
	}
	w.Flush()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "phases: "+format+"\n", args...)
	os.Exit(1)
}
