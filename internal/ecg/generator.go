package ecg

import (
	"fmt"
	"math"
	"math/rand"
)

// LeadSetEinthoven3 returns the lead vectors of a 3-lead configuration in
// the Einthoven frontal-plane geometry (leads I, II, III at 0°, 60° and
// 120°), the configuration of the SmartCardia device evaluated in
// Section V.
func LeadSetEinthoven3() []Vec3 {
	return []Vec3{
		{1, 0, 0.05},
		{0.5, 0.866, 0.05},
		{-0.5, 0.866, 0.05},
	}
}

// Config parameterises record synthesis.
type Config struct {
	// Fs is the sampling rate in Hz (default 256, the rate used by the
	// embedded platform literature the paper builds on).
	Fs float64
	// Duration is the record length in seconds (default 30).
	Duration float64
	// Leads holds the lead direction vectors (default Einthoven 3-lead).
	Leads []Vec3
	// Rhythm selects and parameterises the rhythm generator.
	Rhythm RhythmConfig
	// Noise sets the additive noise mix (default CleanNoise).
	Noise NoiseConfig
	// FWaveAmp is the fibrillatory-wave amplitude in mV for AF rhythms
	// (default 0.05).
	FWaveAmp float64
	// RespAmpMod is the fractional beat-amplitude modulation by
	// respiration (the effect ECG-derived-respiration methods recover);
	// 0 disables it. The modulation frequency follows the RSA rate
	// (~0.25 Hz).
	RespAmpMod float64
	// Morphology overrides the normal-beat morphology for this subject
	// (bundle-branch patterns, low-voltage recordings, ...); nil uses
	// NormalMorphology. Ectopic beats keep their own morphologies.
	Morphology *Morphology
	// Seed drives all randomness; records with equal Config are
	// bit-identical.
	Seed int64
}

func (c Config) withDefaults() Config {
	out := c
	if out.Fs <= 0 {
		out.Fs = 256
	}
	if out.Duration <= 0 {
		out.Duration = 30
	}
	if len(out.Leads) == 0 {
		out.Leads = LeadSetEinthoven3()
	}
	if out.FWaveAmp <= 0 {
		out.FWaveAmp = 0.05
	}
	return out
}

// Generate synthesises one annotated record from the configuration.
func Generate(cfg Config) *Record {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	n := int(c.Duration * c.Fs)
	numLeads := len(c.Leads)
	clean := make([][]float64, numLeads)
	for i := range clean {
		clean[i] = make([]float64, n)
	}
	plans := planRhythm(c.Rhythm, c.Morphology, c.Duration, rng)
	rec := &Record{
		Name: fmt.Sprintf("synth-%s-hr%.0f-seed%d", rhythmName(c.Rhythm.Kind), c.Rhythm.withDefaults().MeanHR, c.Seed),
		Fs:   c.Fs,
	}
	respPhase := rng.Float64() * 2 * math.Pi
	for _, p := range plans {
		r := int(p.t * c.Fs)
		if r < 0 || r >= n {
			continue
		}
		amp := p.ampJitter
		if c.RespAmpMod > 0 {
			amp *= 1 + c.RespAmpMod*math.Sin(2*math.Pi*0.25*p.t+respPhase)
		}
		p.morph.renderInto(clean, c.Leads, r, c.Fs, p.qtScale, amp)
		rec.Beats = append(rec.Beats, Beat{
			Label: p.label,
			Fid:   p.morph.fiducialsAt(r, c.Fs, p.qtScale, n),
		})
	}
	if c.Rhythm.Kind == RhythmAF {
		fWaves(clean, c.Leads, 0, n, c.Fs, c.FWaveAmp, rng)
		rec.AFSegments = [][2]int{{0, n}}
	}
	// Copy clean leads, then add noise on top of the copy.
	noisy := make([][]float64, numLeads)
	for i := range noisy {
		noisy[i] = make([]float64, n)
		copy(noisy[i], clean[i])
	}
	addNoise(noisy, c.Noise, c.Fs, rng)
	rec.Leads = noisy
	rec.Clean = clean
	return rec
}

func rhythmName(k RhythmKind) string {
	if k == RhythmAF {
		return "af"
	}
	return "nsr"
}

// GenerateSet synthesises `count` records with consecutive seeds starting
// at baseSeed, all sharing the same configuration otherwise. This is the
// "averaged over all records" workload of Figure 5.
func GenerateSet(cfg Config, baseSeed int64, count int) []*Record {
	out := make([]*Record, count)
	for i := range out {
		c := cfg
		c.Seed = baseSeed + int64(i)
		out[i] = Generate(c)
	}
	return out
}
