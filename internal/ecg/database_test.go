package ecg

// The standard synthetic record library below stands in for the
// clinical databases (MIT-BIH Arrhythmia-style diversity) when an
// experiment asks for results "averaged over all records": subjects vary
// in heart rate, beat morphology (including wide-QRS bundle-branch
// patterns and low-voltage recordings), ectopy load, rhythm and noise.
// No program reads it; BenchmarkDatabaseDelineation averages the Text-1
// evaluation over it.

// WideQRSMorphology returns a bundle-branch-block-like beat: prolonged
// ventricular depolarisation widens the QRS beyond 120 ms while the P
// wave stays normal.
func WideQRSMorphology() Morphology {
	m := NormalMorphology()
	m.Q.Width = 0.018
	m.Q.Offset = -0.045
	m.R.Width = 0.026
	m.S.Width = 0.022
	m.S.Offset = 0.055
	m.T.Amp = -0.25 // discordant repolarisation
	m.T.Dir = m.T.Dir.Scale(-1)
	return m
}

// LowVoltageMorphology returns a low-amplitude subject (e.g. large body
// habitus or pericardial effusion): all waves scaled to 40%.
func LowVoltageMorphology() Morphology {
	m := NormalMorphology()
	m.P.Amp *= 0.4
	m.Q.Amp *= 0.4
	m.R.Amp *= 0.4
	m.S.Amp *= 0.4
	m.T.Amp *= 0.4
	return m
}

// TallTMorphology returns a subject with prominent T waves (a delineation
// stress case: the T rivals the QRS at coarse scales).
func TallTMorphology() Morphology {
	m := NormalMorphology()
	m.T.Amp = 0.6
	m.T.Width = 0.06
	return m
}

// DatabaseEntry names one synthetic subject of the standard library.
type DatabaseEntry struct {
	Name string
	Cfg  Config
}

// StandardDatabase returns the 16-subject synthetic library: a spread of
// heart rates, morphologies, ectopy loads, noise conditions and rhythms
// (records 13-16 are atrial fibrillation). Record durations default to
// `dur` seconds; all records are deterministic in the base seed.
func StandardDatabase(dur float64, baseSeed int64) []DatabaseEntry {
	mk := func(i int, name string, mut func(*Config)) DatabaseEntry {
		cfg := Config{Duration: dur, Seed: baseSeed + int64(i)}
		mut(&cfg)
		return DatabaseEntry{Name: name, Cfg: cfg}
	}
	return []DatabaseEntry{
		mk(0, "nsr-60", func(c *Config) { c.Rhythm.MeanHR = 60 }),
		mk(1, "nsr-75", func(c *Config) { c.Rhythm.MeanHR = 75 }),
		mk(2, "nsr-95", func(c *Config) { c.Rhythm.MeanHR = 95 }),
		mk(3, "nsr-hrv", func(c *Config) { c.Rhythm.HRVRSA = 0.07; c.Rhythm.HRVMayer = 0.05 }),
		mk(4, "pvc-burden", func(c *Config) { c.Rhythm.PVCRate = 0.12 }),
		mk(5, "apb-burden", func(c *Config) { c.Rhythm.APBRate = 0.10 }),
		mk(6, "mixed-ectopy", func(c *Config) { c.Rhythm.PVCRate = 0.06; c.Rhythm.APBRate = 0.06 }),
		mk(7, "noisy-ambulatory", func(c *Config) { c.Noise = AmbulatoryNoise() }),
		mk(8, "emg-heavy", func(c *Config) { c.Noise = NoiseConfig{EMG: 0.08} }),
		mk(9, "wander-heavy", func(c *Config) { c.Noise = NoiseConfig{BaselineWander: 0.4} }),
		mk(10, "wide-qrs", func(c *Config) { c.Morphology = ptr(WideQRSMorphology()) }),
		mk(11, "low-voltage", func(c *Config) { c.Morphology = ptr(LowVoltageMorphology()) }),
		mk(12, "tall-t", func(c *Config) { c.Morphology = ptr(TallTMorphology()) }),
		mk(13, "af-slow", func(c *Config) { c.Rhythm.Kind = RhythmAF; c.Rhythm.MeanHR = 80 }),
		mk(14, "af-fast", func(c *Config) { c.Rhythm.Kind = RhythmAF; c.Rhythm.MeanHR = 110 }),
		mk(15, "af-noisy", func(c *Config) { c.Rhythm.Kind = RhythmAF; c.Noise = NoiseConfig{EMG: 0.04} }),
	}
}

func ptr(m Morphology) *Morphology { return &m }

// GenerateDatabase materialises the standard library.
func GenerateDatabase(dur float64, baseSeed int64) []*Record {
	entries := StandardDatabase(dur, baseSeed)
	out := make([]*Record, len(entries))
	for i, e := range entries {
		rec := Generate(e.Cfg)
		rec.Name = e.Name
		out[i] = rec
	}
	return out
}
