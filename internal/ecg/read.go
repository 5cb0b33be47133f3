package ecg

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadCSV parses a record written by WriteCSV: a header line ("t,lead1,
// lead2,...") followed by one row per sample. The sampling rate is
// recovered from the time column. Annotations are not part of the signal
// file; attach them with ReadAnnotations.
func ReadCSV(r io.Reader) (*Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("ecg: empty CSV")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 2 || header[0] != "t" {
		return nil, fmt.Errorf("ecg: bad CSV header %q", sc.Text())
	}
	numLeads := len(header) - 1
	rec := &Record{Name: "csv", Leads: make([][]float64, numLeads)}
	var t0, tLast float64
	row := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != numLeads+1 {
			return nil, fmt.Errorf("ecg: row %d has %d fields, want %d", row, len(fields), numLeads+1)
		}
		tv, err := parseFinite(fields[0])
		if err != nil {
			return nil, fmt.Errorf("ecg: row %d time: %v", row, err)
		}
		if row == 0 {
			t0 = tv
		}
		tLast = tv
		for li := 0; li < numLeads; li++ {
			v, err := parseFinite(fields[li+1])
			if err != nil {
				return nil, fmt.Errorf("ecg: row %d lead %d: %v", row, li, err)
			}
			rec.Leads[li] = append(rec.Leads[li], v)
		}
		row++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if row < 2 {
		return nil, fmt.Errorf("ecg: need at least 2 samples, got %d", row)
	}
	span := tLast - t0
	if span <= 0 {
		return nil, fmt.Errorf("ecg: non-increasing time column")
	}
	// Recover the rate from the full span (robust to the per-row
	// decimal truncation of the time column).
	rec.Fs = float64(row-1) / span
	return rec, nil
}

// parseFinite parses one CSV cell and refuses NaN and ±Inf, which
// strconv accepts: one such sample corrupts every filter and threshold
// downstream of it, and one such time makes the sampling rate NaN or 0.
func parseFinite(cell string) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", cell)
	}
	return v, err
}

// ReadAnnotations parses a beat-annotation file written by
// WriteAnnotations and attaches the beats to the record.
func (r *Record) ReadAnnotations(src io.Reader) error {
	sc := bufio.NewScanner(src)
	if !sc.Scan() {
		return fmt.Errorf("ecg: empty annotation file")
	}
	if got := strings.TrimSpace(sc.Text()); got != "label,Pon,Ppeak,Poff,QRSon,Rpeak,QRSoff,Ton,Tpeak,Toff" {
		return fmt.Errorf("ecg: bad annotation header %q", got)
	}
	labelFor := map[string]BeatLabel{"N": LabelNormal, "V": LabelPVC, "A": LabelAPB, "f": LabelAF}
	r.Beats = nil
	row := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 10 {
			return fmt.Errorf("ecg: annotation row %d has %d fields", row, len(fields))
		}
		label, ok := labelFor[fields[0]]
		if !ok {
			return fmt.Errorf("ecg: unknown beat label %q", fields[0])
		}
		vals := make([]int, 9)
		for i := 0; i < 9; i++ {
			v, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return fmt.Errorf("ecg: annotation row %d field %d: %v", row, i+1, err)
			}
			vals[i] = v
		}
		r.Beats = append(r.Beats, Beat{
			Label: label,
			Fid: Fiducials{
				POn: vals[0], PPeak: vals[1], POff: vals[2],
				QRSOn: vals[3], RPeak: vals[4], QRSOff: vals[5],
				TOn: vals[6], TPeak: vals[7], TOff: vals[8],
			},
		})
		row++
	}
	return sc.Err()
}
