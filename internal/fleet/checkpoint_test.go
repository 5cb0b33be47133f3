package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"wbsn/internal/core"
)

// ckptFixture builds a small warm-tier cluster and its (round-0)
// checkpoint file. No round runs, and one lead of 128-sample windows
// (the shortest the 5-level db8 decoder accepts) keeps the file under
// 2 KB, so it is cheap enough to seed a fuzz target.
func ckptFixture(tb testing.TB) (*Cluster, []byte) {
	tb.Helper()
	cfg := clusterCfg(3)
	cfg.CarryWarm = true
	cfg.Fleet.Node = core.Config{Mode: core.ModeCS, Leads: 1, CSWindow: 128, CSRatio: 60, Seed: cfg.Fleet.Seed}
	cl, err := NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	var buf bytes.Buffer
	if err := cl.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return cl, buf.Bytes()
}

// reseal returns a copy of file with its FNV-1a footer recomputed over
// the body, so a forged field reaches the body checks instead of
// failing the footer.
func reseal(file []byte) []byte {
	out := append([]byte(nil), file...)
	if len(out) < 8 {
		return out
	}
	h := fnv.New64a()
	h.Write(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// withRounds returns a resealed copy of file whose header and every
// patient report the given round count.
func withRounds(file []byte, patients int, rounds uint32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[32:], rounds)
	for p := 0; p < patients; p++ {
		binary.LittleEndian.PutUint32(out[ckptHeaderLen+p*patientStateBytes+56:], rounds)
	}
	return reseal(out)
}

// TestReadCheckpointRejectsForgedFields: a correct footer does not make
// a file trustworthy. Each forged field a writer never produces must be
// refused with ErrCheckpoint and leave the cluster untouched — above
// all a patient round count that disagrees with the header, which
// VerifyPatient would replay (4,294,967,280 sessions here).
func TestReadCheckpointRejectsForgedFields(t *testing.T) {
	cl, file := ckptFixture(t)
	const patients = 3
	warmStart := ckptHeaderLen + patients*patientStateBytes
	cases := []struct {
		name  string
		forge func(b []byte)
	}{
		{"patient rounds", func(b []byte) {
			binary.LittleEndian.PutUint32(b[ckptHeaderLen+1*patientStateBytes+56:], 4294967280)
		}},
		{"reserved header byte", func(b []byte) { b[9] = 0x7f }},
		{"rounds and reserved byte", func(b []byte) {
			binary.LittleEndian.PutUint32(b[ckptHeaderLen+1*patientStateBytes+56:], 4294967280)
			b[9] = 0x7f
		}},
		{"unknown flag bit", func(b []byte) { b[8] |= 0x80 }},
		{"reserved header word", func(b []byte) { b[45] = 1 }},
		{"reserved state bytes", func(b []byte) { b[ckptHeaderLen+2*patientStateBytes+61] = 1 }},
		{"warm valid byte", func(b []byte) { b[warmStart] = 2 }},
	}
	for _, c := range cases {
		forged := append([]byte(nil), file...)
		c.forge(forged)
		err := cl.ReadCheckpoint(bytes.NewReader(reseal(forged)))
		if !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: err %v, want ErrCheckpoint", c.name, err)
		}
		if cl.RoundsDone() != 0 || cl.State(1).Rounds != 0 {
			t.Fatalf("%s: rejected file changed the cluster (rounds %d, patient 1 %d)",
				c.name, cl.RoundsDone(), cl.State(1).Rounds)
		}
	}
	// Non-vacuity: the resealed, consistent file is accepted.
	if err := cl.ReadCheckpoint(bytes.NewReader(withRounds(file, patients, 2))); err != nil {
		t.Fatalf("consistent resealed checkpoint: %v", err)
	}
	if cl.RoundsDone() != 2 || cl.State(1).Rounds != 2 {
		t.Fatalf("restored rounds %d, patient 1 %d, want 2", cl.RoundsDone(), cl.State(1).Rounds)
	}
}

// FuzzReadCheckpoint treats checkpoint files as the untrusted input
// they are. Every input is resealed (footer recomputed) so mutations
// reach the header and body checks. An input must either be refused
// with ErrCheckpoint or restore a population whose every patient has
// exactly RoundsDone() rounds.
func FuzzReadCheckpoint(f *testing.F) {
	cl, file := ckptFixture(f)
	patients := cl.cfg.Patients
	f.Add(file)
	f.Add(withRounds(file, patients, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := cl.ReadCheckpoint(bytes.NewReader(reseal(data)))
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("err %v, want ErrCheckpoint", err)
			}
			return
		}
		for p := 0; p < patients; p++ {
			if got := int(cl.State(p).Rounds); got != cl.RoundsDone() {
				t.Fatalf("patient %d: %d rounds, RoundsDone %d", p, got, cl.RoundsDone())
			}
		}
	})
}
