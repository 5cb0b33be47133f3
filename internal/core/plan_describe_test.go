package core

import (
	"fmt"
	"strings"
	"testing"

	"wbsn/internal/ecg"
)

// TestPlanDescribe pins every operating mode's compiled node plan as
// exact text — op and stage counts, fusion wins and the arena
// footprint — so a change to a pipeline's shape shows in review as a
// diff of this table. On a mismatch it prints the wanted text.
func TestPlanDescribe(t *testing.T) {
	train := ecg.Generate(ecg.Config{Seed: 43, Duration: 20})
	cls, err := TrainClassifier([]*ecg.Record{train}, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"raw-streaming", Config{Mode: ModeRawStreaming}},
		{"compressed-sensing", Config{Mode: ModeCS, CSRatio: 60}},
		{"delineation", Config{Mode: ModeDelineation}},
		{"delineation-gated", Config{Mode: ModeDelineation, GateLeads: true}},
		{"classification", Config{Mode: ModeClassification, Classifier: cls}},
		{"classification-gated", Config{Mode: ModeClassification, Classifier: cls, GateLeads: true}},
		{"af-alarm", Config{Mode: ModeAFAlarm}},
	}
	var got strings.Builder
	for _, c := range cases {
		node, err := NewNode(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%-21s %s\n", c.name, node.Plan().Describe())
	}
	want := `raw-streaming         1 ops -> 1 stages (0 fused away), arena 0.0 KiB
compressed-sensing    2 ops -> 2 stages (0 fused away), arena 0.0 KiB
delineation           4 ops -> 3 stages (1 fused away), arena 48.0 KiB
delineation-gated     5 ops -> 4 stages (1 fused away), arena 48.0 KiB
classification        5 ops -> 3 stages (1 fused away), arena 48.0 KiB
classification-gated  6 ops -> 4 stages (1 fused away), arena 48.0 KiB
af-alarm              4 ops -> 3 stages (1 fused away), arena 48.0 KiB
`
	if got.String() != want {
		fmt.Printf("%s plans:\n%s", t.Name(), got.String())
		fmt.Printf("  Failed. Wanted the following plans:\n%s", want)
		t.Fatal("plan descriptions don't match")
	}
}
