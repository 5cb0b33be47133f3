package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Checkpoint format (all little-endian, version 1):
//
//	magic   [8]byte  "WBSNCKP1"
//	flags   u8       bit0 = carry-warm tier present
//	_       [7]byte  reserved (zero)
//	seed    i64      base fleet seed
//	patients u64     population size
//	rounds  u32      completed scheduling rounds
//	warmLeads u32    warm tier shape (0 when absent)
//	warmN   u32
//	_       u32      reserved (zero)
//	sessionS f64     seconds per round (IEEE-754 bits)
//	states  patients × 64 B   PatientState, field order below
//	warm    patients × (1 + 4·leads·n) B   valid byte then float32 bits
//	footer  u64      FNV-1a of every preceding byte
//
// The footer reuses the fleet's own resumable FNV-1a, so a corrupted or
// truncated file fails loudly instead of resuming a silently wrong
// population. The header pins everything the digest stream depends on:
// restore refuses a checkpoint whose seed, population, session length
// or warm shape disagree with the receiving cluster, because resuming
// such a file could only produce drifting digests. A file is untrusted
// input even when its footer matches (the footer is not a signature),
// so restore also refuses anything a writer never produces: unknown
// flag bits, nonzero reserved bytes, a warm shape without a warm tier,
// a warm valid byte other than 0/1, and a patient whose round count
// differs from the header's — VerifyPatient replays that many rounds.
var ckptMagic = [8]byte{'W', 'B', 'S', 'N', 'C', 'K', 'P', '1'}

// ErrCheckpoint is returned for malformed, corrupted or mismatched
// checkpoint files.
var ErrCheckpoint = errors.New("fleet: bad checkpoint")

const ckptHeaderLen = 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 8

// putState serialises one PatientState into a 64-byte buffer.
func putState(b []byte, st *PatientState) {
	binary.LittleEndian.PutUint64(b[0:], st.Digest)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(st.RadioEnergyJ))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(st.IdealEnergyJ))
	binary.LittleEndian.PutUint32(b[24:], st.Events)
	binary.LittleEndian.PutUint32(b[28:], st.Packets)
	binary.LittleEndian.PutUint32(b[32:], st.Delivered)
	binary.LittleEndian.PutUint32(b[36:], st.Lost)
	binary.LittleEndian.PutUint32(b[40:], st.Beats)
	binary.LittleEndian.PutUint32(b[44:], st.TP)
	binary.LittleEndian.PutUint32(b[48:], st.FP)
	binary.LittleEndian.PutUint32(b[52:], st.FN)
	binary.LittleEndian.PutUint32(b[56:], st.Rounds)
	binary.LittleEndian.PutUint32(b[60:], 0)
}

func getState(b []byte, st *PatientState) {
	st.Digest = binary.LittleEndian.Uint64(b[0:])
	st.RadioEnergyJ = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	st.IdealEnergyJ = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	st.Events = binary.LittleEndian.Uint32(b[24:])
	st.Packets = binary.LittleEndian.Uint32(b[28:])
	st.Delivered = binary.LittleEndian.Uint32(b[32:])
	st.Lost = binary.LittleEndian.Uint32(b[36:])
	st.Beats = binary.LittleEndian.Uint32(b[40:])
	st.TP = binary.LittleEndian.Uint32(b[44:])
	st.FP = binary.LittleEndian.Uint32(b[48:])
	st.FN = binary.LittleEndian.Uint32(b[52:])
	st.Rounds = binary.LittleEndian.Uint32(b[56:])
}

// WriteCheckpoint serialises the cluster's resumable state — seeds,
// per-patient progress and digests, and the warm snapshot tier — so a
// later ReadCheckpoint into an identically configured cluster resumes
// bit-identically: the remaining rounds produce exactly the digests an
// uninterrupted run would have.
//
// Call between rounds only (the cold tier is consistent exactly at
// round boundaries). A cluster whose round failed has no consistent
// boundary left, so it returns that round's error and writes nothing.
func (cl *Cluster) WriteCheckpoint(w io.Writer) error {
	if cl.err != nil {
		return cl.err
	}
	h := newFNV64a(fnvOffset64)
	hw := io.MultiWriter(w, h)

	hdr := make([]byte, ckptHeaderLen)
	copy(hdr, ckptMagic[:])
	var flags byte
	if cl.warm != nil {
		flags |= 1
	}
	hdr[8] = flags
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cl.cfg.Seed))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(cl.states)))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(cl.rounds))
	if cl.warm != nil {
		binary.LittleEndian.PutUint32(hdr[36:], uint32(cl.warm.leads))
		binary.LittleEndian.PutUint32(hdr[40:], uint32(cl.warm.n))
	}
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(cl.ccfg.SessionS))
	if _, err := hw.Write(hdr); err != nil {
		return err
	}

	buf := make([]byte, patientStateBytes)
	for p := range cl.states {
		putState(buf, &cl.states[p])
		if _, err := hw.Write(buf); err != nil {
			return err
		}
	}

	if cl.warm != nil {
		stride := len(cl.warm.slot(0))
		wbuf := make([]byte, 1+4*stride)
		for p := range cl.states {
			wbuf[0] = cl.warm.valid[p]
			slot := cl.warm.slot(p)
			for i, v := range slot {
				binary.LittleEndian.PutUint32(wbuf[1+4*i:], math.Float32bits(v))
			}
			if _, err := hw.Write(wbuf); err != nil {
				return err
			}
		}
	}

	var footer [8]byte
	binary.LittleEndian.PutUint64(footer[:], h.Sum64())
	_, err := w.Write(footer[:])
	return err
}

// ReadCheckpoint restores the cluster's resumable state from a
// WriteCheckpoint stream. The receiving cluster must be freshly built
// with the same seed, population, session length and warm tier as the
// writer — any mismatch (or a corrupted stream, caught by the FNV
// footer) returns ErrCheckpoint and leaves no partial state applied:
// the population arrays are only swapped in after full validation.
func (cl *Cluster) ReadCheckpoint(r io.Reader) error {
	h := newFNV64a(fnvOffset64)
	hr := io.TeeReader(r, h)

	hdr := make([]byte, ckptHeaderLen)
	if _, err := io.ReadFull(hr, hdr); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCheckpoint, err)
	}
	if [8]byte(hdr[:8]) != ckptMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	flags := hdr[8]
	seed := int64(binary.LittleEndian.Uint64(hdr[16:]))
	patients := binary.LittleEndian.Uint64(hdr[24:])
	rounds := binary.LittleEndian.Uint32(hdr[32:])
	warmLeads := int(binary.LittleEndian.Uint32(hdr[36:]))
	warmN := int(binary.LittleEndian.Uint32(hdr[40:]))
	sessionS := math.Float64frombits(binary.LittleEndian.Uint64(hdr[48:]))

	if flags&^1 != 0 || !allZero(hdr[9:16]) || !allZero(hdr[44:48]) {
		return fmt.Errorf("%w: unknown flags or nonzero reserved header bytes", ErrCheckpoint)
	}
	if seed != cl.cfg.Seed {
		return fmt.Errorf("%w: seed %d, cluster has %d", ErrCheckpoint, seed, cl.cfg.Seed)
	}
	if patients != uint64(len(cl.states)) {
		return fmt.Errorf("%w: %d patients, cluster has %d", ErrCheckpoint, patients, len(cl.states))
	}
	if sessionS != cl.ccfg.SessionS {
		return fmt.Errorf("%w: session %gs, cluster has %gs", ErrCheckpoint, sessionS, cl.ccfg.SessionS)
	}
	hasWarm := flags&1 != 0
	if hasWarm != (cl.warm != nil) {
		return fmt.Errorf("%w: warm tier mismatch (checkpoint %v, cluster %v)", ErrCheckpoint, hasWarm, cl.warm != nil)
	}
	if hasWarm && (warmLeads != cl.warm.leads || warmN != cl.warm.n) {
		return fmt.Errorf("%w: warm shape %dx%d, cluster has %dx%d",
			ErrCheckpoint, warmLeads, warmN, cl.warm.leads, cl.warm.n)
	}
	if !hasWarm && (warmLeads != 0 || warmN != 0) {
		return fmt.Errorf("%w: warm shape %dx%d without a warm tier", ErrCheckpoint, warmLeads, warmN)
	}

	states := make([]PatientState, len(cl.states))
	buf := make([]byte, patientStateBytes)
	for p := range states {
		if _, err := io.ReadFull(hr, buf); err != nil {
			return fmt.Errorf("%w: state %d: %v", ErrCheckpoint, p, err)
		}
		getState(buf, &states[p])
		if states[p].Rounds != rounds || !allZero(buf[60:]) {
			return fmt.Errorf("%w: state %d: %d rounds (header %d) or nonzero reserved bytes",
				ErrCheckpoint, p, states[p].Rounds, rounds)
		}
	}

	var warm *warmStore
	if hasWarm {
		warm = newWarmStore(len(states), warmLeads, warmN)
		stride := len(warm.slot(0))
		wbuf := make([]byte, 1+4*stride)
		for p := range states {
			if _, err := io.ReadFull(hr, wbuf); err != nil {
				return fmt.Errorf("%w: warm %d: %v", ErrCheckpoint, p, err)
			}
			if wbuf[0] > 1 {
				return fmt.Errorf("%w: warm %d: valid byte %d", ErrCheckpoint, p, wbuf[0])
			}
			warm.valid[p] = wbuf[0]
			slot := warm.slot(p)
			for i := range slot {
				slot[i] = math.Float32frombits(binary.LittleEndian.Uint32(wbuf[1+4*i:]))
			}
		}
	}

	want := h.Sum64()
	var footer [8]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrCheckpoint, err)
	}
	if got := binary.LittleEndian.Uint64(footer[:]); got != want {
		return fmt.Errorf("%w: FNV footer %016x, computed %016x", ErrCheckpoint, got, want)
	}

	cl.states = states
	cl.warm = warm
	cl.rounds = int(rounds)
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
