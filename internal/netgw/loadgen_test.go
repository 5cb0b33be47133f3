package netgw

import (
	"bytes"
	"testing"

	"wbsn/internal/cohort"
	"wbsn/internal/core"
	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

// TestLoadgenReplaysCohortRecords: the replay set is the cohort's
// network records under the loadgen's seed — AF rhythm, ambulatory
// noise and two clean sinus records — and the node encodes the leads
// it acquires, noise included, not the noise-free ground truth.
func TestLoadgenReplaysCohortRecords(t *testing.T) {
	cfg := LoadgenConfig{Records: 4, Seed: testSeed}.withDefaults()
	tr, err := buildTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(tr.ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.Records; r++ {
		rec := ecg.Generate(cohort.NetRecord(cfg.Seed, r, cfg.DurationS))
		stream, err := node.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		events, err := stream.PushBlock(rec.Leads)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, e := range events {
			if e.Kind != core.EventPacket || e.Measurements == nil {
				continue
			}
			f, err := link.Encode(link.Packet{Seq: uint32(len(want)), WindowStart: uint32(e.At), Measurements: e.Measurements})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, f)
		}
		if len(tr.frames[r]) != len(want) {
			t.Fatalf("record %d: %d frames, want %d", r, len(tr.frames[r]), len(want))
		}
		for i := range want {
			if !bytes.Equal(tr.frames[r][i], want[i]) {
				t.Fatalf("record %d: frame %d is not the cohort record's encoding", r, i)
			}
		}
	}
}
