package paper

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// result runs a generator once per test binary, so that a claim's text
// test and its shape test share one run.
type result[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (r *result[T]) get(t *testing.T, gen func() (T, error)) T {
	t.Helper()
	r.once.Do(func() { r.v, r.err = gen() })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.v
}

// raceEnabled reports whether the race detector is active.
var raceEnabled bool

var (
	fig1  result[*Ladder]
	fig5  result[*SNRCurve]
	fig6  result[*EnergyBreakdown]
	fig7  result[*MulticorePower]
	text1 result[*DelineationAccuracy]
	text2 result[*AFDetection]
)

// figure5 skips under -short and -race: the sweep runs full
// reconstructions, ~10 s without the race detector.
func figure5(t *testing.T) *SNRCurve {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("the Figure 5 sweep runs full reconstructions")
	}
	return fig5.get(t, Figure5)
}

// TestClaimTexts is the golden of the paper's results: the fenced block
// under each result's heading in EXPERIMENTS.md is its generator's text
// byte for byte, and so is README's quickstart block Figure 1's. On a
// mismatch it prints the produced and the wanted text; if the change is
// intended, the block is replaced with the former.
func TestClaimTexts(t *testing.T) {
	for _, c := range []struct {
		file, heading string
		text          func(*testing.T) Result
	}{
		{"EXPERIMENTS.md", "## Figure 5 ", func(t *testing.T) Result { return figure5(t) }},
		{"EXPERIMENTS.md", "## Figure 6 ", func(t *testing.T) Result { return fig6.get(t, Figure6) }},
		{"EXPERIMENTS.md", "## Figure 7 ", func(t *testing.T) Result { return fig7.get(t, Figure7) }},
		{"EXPERIMENTS.md", "## Text-1 ", func(t *testing.T) Result { return text1.get(t, Text1) }},
		{"EXPERIMENTS.md", "## Text-2 ", func(t *testing.T) Result { return text2.get(t, Text2) }},
		{"EXPERIMENTS.md", "## Figure 1 ", func(t *testing.T) Result { return fig1.get(t, Figure1) }},
		{"README.md", "## Quickstart", func(t *testing.T) Result { return fig1.get(t, Figure1) }},
	} {
		t.Run(strings.TrimSpace(strings.TrimPrefix(c.heading, "## ")), func(t *testing.T) {
			doc, err := os.ReadFile("../../" + c.file)
			if err != nil {
				t.Fatal(err)
			}
			want := fencedBlock(t, string(doc), c.heading)
			if got := c.text(t).String(); got != want {
				t.Errorf("the block under %q in %s differs from its generator's text; if the change is intended, replace the block with the text produced.\nproduced:\n%s\nwanted:\n%s",
					c.heading, c.file, got, want)
			}
		})
	}
}

// fencedBlock returns the text of the one fenced block in the section
// of doc whose "## " heading starts with heading.
func fencedBlock(t *testing.T, doc, heading string) string {
	t.Helper()
	_, sec, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("no section %q", heading)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	fences := strings.Split(sec, "\n```")
	if len(fences) != 3 {
		t.Fatalf("section %q has %d fence lines, want the 2 of one block", heading, len(fences)-1)
	}
	_, block, _ := strings.Cut(fences[1], "\n")
	return block + "\n"
}

// TestFigure5Crossings pins the paper's central CS result: the averaged
// SNR crosses 20 dB at CR 66.3 single-lead and 71.7 multi-lead (paper:
// 65.9 and 72.7), each within ±0.5 CR, and joint multi-lead recovery
// beats single-lead recovery at every CR of the sweep.
func TestFigure5Crossings(t *testing.T) {
	c := figure5(t)
	t.Logf("20 dB crossings: single-lead CR %.2f, multi-lead CR %.2f", c.SingleCross, c.MultiCross)
	if err := c.Shape(); err != nil {
		t.Error(err)
	}
}

// TestFigure6Reductions checks the Figure 6 shape: CS moves energy out
// of the radio at a tiny compression cost, multi-lead saves more than
// single-lead and both reductions land in their bands.
func TestFigure6Reductions(t *testing.T) {
	if err := fig6.get(t, Figure6).Shape(); err != nil {
		t.Error(err)
	}
}

// TestFigure7Shape checks that the multi-core platform draws less power
// than the single core on every workload, through broadcast merging and
// a scaled-down operating point.
func TestFigure7Shape(t *testing.T) {
	if err := fig7.get(t, Figure7).Shape(); err != nil {
		t.Error(err)
	}
}

// TestLadderMonotonicity checks the Figure 1 claim: bandwidth and power
// fall as abstraction rises.
func TestLadderMonotonicity(t *testing.T) {
	if err := fig1.get(t, Figure1).Shape(); err != nil {
		t.Error(err)
	}
}
