package ecg

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	rec := Generate(Config{Seed: 9, Duration: 5})
	var sig, ann bytes.Buffer
	if err := rec.WriteCSV(&sig); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteAnnotations(&ann); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&sig)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ReadAnnotations(&ann); err != nil {
		t.Fatal(err)
	}
	if len(back.Leads) != len(rec.Leads) || back.Len() != rec.Len() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d",
			len(back.Leads), back.Len(), len(rec.Leads), rec.Len())
	}
	if d := back.Fs - rec.Fs; d > 0.01 || d < -0.01 {
		t.Errorf("Fs recovered as %v, want %v", back.Fs, rec.Fs)
	}
	for li := range rec.Leads {
		for i := range rec.Leads[li] {
			d := back.Leads[li][i] - rec.Leads[li][i]
			if d > 1e-5 || d < -1e-5 {
				t.Fatalf("sample %d lead %d differs: %v vs %v",
					i, li, back.Leads[li][i], rec.Leads[li][i])
			}
		}
	}
	if len(back.Beats) != len(rec.Beats) {
		t.Fatalf("beat count %d vs %d", len(back.Beats), len(rec.Beats))
	}
	for i := range rec.Beats {
		if back.Beats[i] != rec.Beats[i] {
			t.Fatalf("beat %d differs: %+v vs %+v", i, back.Beats[i], rec.Beats[i])
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "x,y\n1,2\n",
		"short":      "t,lead1\n0,1\n",
		"ragged":     "t,lead1\n0,1\n0.1,2,3\n",
		"bad number": "t,lead1\n0,a\n0.1,2\n",
		"bad time":   "t,lead1\nz,1\n0.1,2\n",
		"reversed t": "t,lead1\n0.1,1\n0.1,2\n",
		"nan sample": "t,lead1\n0,1\n0.1,NaN\n",
		"inf time":   "t,lead1\n0,1\nInf,2\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	if _, err := ReadCSV(strings.NewReader(cases["nan sample"])); err == nil || !strings.Contains(err.Error(), "row 1 lead 0") {
		t.Errorf("NaN sample error %v does not name its row and lead", err)
	}
}

// TestReadCSVRefusesRateAboveCeiling: a 4-row CSV whose time column
// steps by a nanosecond recovers 1 GHz, which the readers would have
// sized buffers from; it is refused with an error naming the rate. A
// record written at exactly MaxFs reads back at MaxFs, whichever way
// its decimal time column rounds (170 samples read one ulp above it
// before the check).
func TestReadCSVRefusesRateAboveCeiling(t *testing.T) {
	tiny := "t,lead1\n0,0.1\n0.000000001,0.2\n0.000000002,0.3\n0.000000003,0.4\n"
	if rec, err := ReadCSV(strings.NewReader(tiny)); err == nil || !strings.Contains(err.Error(), "1e+09 Hz") {
		t.Fatalf("1 GHz CSV: record %v, err %v; want an error naming the rate", rec, err)
	}
	for _, n := range []int{2, 4, 170, 1000} {
		in := &Record{Fs: MaxFs, Leads: [][]float64{make([]float64, n)}}
		var buf bytes.Buffer
		if err := in.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%d samples at MaxFs: %v", n, err)
		}
		if rec.Fs > MaxFs || rec.Fs < MaxFs*(1-1e-9) {
			t.Errorf("%d samples at MaxFs read back at %v Hz", n, rec.Fs)
		}
	}
}

func TestReadAnnotationsErrors(t *testing.T) {
	rec := Generate(Config{Seed: 9, Duration: 5})
	cases := map[string]string{
		"empty":      "",
		"bad header": "nope\n",
		"ragged":     "label,Pon,Ppeak,Poff,QRSon,Rpeak,QRSoff,Ton,Tpeak,Toff\nN,1,2\n",
		"bad label":  "label,Pon,Ppeak,Poff,QRSon,Rpeak,QRSoff,Ton,Tpeak,Toff\nX,1,2,3,4,5,6,7,8,9\n",
		"bad int":    "label,Pon,Ppeak,Poff,QRSon,Rpeak,QRSoff,Ton,Tpeak,Toff\nN,a,2,3,4,5,6,7,8,9\n",
	}
	for name, in := range cases {
		if err := rec.ReadAnnotations(strings.NewReader(in)); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}
