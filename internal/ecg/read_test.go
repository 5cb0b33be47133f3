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
