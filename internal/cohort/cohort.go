// Package cohort is the patient population the benchmark's workloads
// run: 16 patients, a seeded quarter each of AF rhythm, ambulatory
// noise, a congested radio cell and the fleet's bursty baseline
// channel. The work-counter golden, the network load generator, the
// PRD budget and wbsn-sim's sweeps read it here, so a patient class is
// added in one place and every measurement sees it.
//
// The package is a leaf: it imports only ecg, link and the standard
// library, so the tests of any package (cs's included) can read it. It
// initialises nothing at package level; every definition is a constant
// or a function, and a binary links only what it calls.
package cohort

import (
	"math/rand"

	"wbsn/internal/ecg"
	"wbsn/internal/link"
)

const (
	// Patients is the cohort's size.
	Patients = 16
	// FirmwareSeed is the sensing-matrix seed. Like a deployed firmware
	// image it is fixed; a cohort seed varies only the patients.
	FirmwareSeed = 42
)

// Class is a patient class.
type Class int

// The four classes, a quarter of the cohort each.
const (
	AF Class = iota
	AmbulatoryNoise
	CongestedRadio
	BurstyBaseline
	// Classes is the number of classes.
	Classes = iota
)

func (k Class) String() string {
	switch k {
	case AF:
		return "af"
	case AmbulatoryNoise:
		return "ambulatory-noise"
	case CongestedRadio:
		return "congested-radio"
	}
	return "bursty-baseline"
}

// Scenario is one patient's deviation from the population defaults.
// Nil fields keep the fleet-wide setting; non-nil fields replace it
// wholesale for that patient (Seed fields are still overridden per
// patient, and a zero-transition channel is normalised to the lossless
// chain exactly like the fleet default).
type Scenario struct {
	Rhythm  *ecg.RhythmConfig
	Noise   *ecg.NoiseConfig
	Channel *link.ChannelConfig
	ARQ     *link.ARQConfig
}

// BaselineChannel is the fleet's bursty Gilbert–Elliott channel, the
// population default every class but the congested one keeps.
func BaselineChannel() link.ChannelConfig {
	return link.ChannelConfig{PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.02, LossBad: 0.45}
}

// CongestedChannel is a congested radio cell: long, deep fades that
// outlast the ARQ retry budget.
func CongestedChannel() link.ChannelConfig {
	return link.ChannelConfig{PGoodToBad: 0.3, PBadToGood: 0.08, LossGood: 0.05, LossBad: 0.95, BERBad: 1e-6, PReorder: 0.02}
}

// Scenario returns the class's scenario. Every call returns fresh
// pointers, so no caller can change another's patient.
func (k Class) Scenario() Scenario {
	switch k {
	case AF:
		return Scenario{Rhythm: &ecg.RhythmConfig{Kind: ecg.RhythmAF}}
	case AmbulatoryNoise:
		noise := ecg.AmbulatoryNoise()
		return Scenario{Noise: &noise}
	case CongestedRadio:
		ch := CongestedChannel()
		return Scenario{Channel: &ch}
	}
	return Scenario{}
}

// Record is the configuration of a durationS-second record of the class
// at the given generator seed: its scenario's rhythm and noise over
// the generator's defaults.
func (k Class) Record(seed int64, durationS float64) ecg.Config {
	cfg := ecg.Config{Seed: seed, Duration: durationS}
	sc := k.Scenario()
	if sc.Rhythm != nil {
		cfg.Rhythm = *sc.Rhythm
	}
	if sc.Noise != nil {
		cfg.Noise = *sc.Noise
	}
	return cfg
}

// Cohort is one seed's draw of the population.
type Cohort struct {
	// Base is the fleet's base seed: patient p's session seeds derive
	// from Base+p.
	Base int64
	// Class is each patient's class.
	Class [Patients]Class
}

// Base is the base seed of the cohort drawn with seed. Bases 7919 apart
// keep the per-patient seeds (base+p) of neighbouring cohort seeds
// disjoint.
func Base(seed int64) int64 { return seed * 7919 }

// New draws the cohort of seed: a seeded permutation assigns the
// classes, so each seed reshuffles who is in which quarter while the
// shares stay exact.
func New(seed int64) *Cohort {
	c := &Cohort{Base: Base(seed)}
	for p, k := range rand.New(rand.NewSource(seed)).Perm(Patients) {
		c.Class[p] = Class(k % Classes)
	}
	return c
}

// Scenario is the fleet's per-patient hook: a pure function of the
// patient.
func (c *Cohort) Scenario(p int) Scenario { return c.Class[p].Scenario() }

// NetRecord is the configuration of record r of the network workload's
// traffic under cohort seed: record r takes class r mod Classes, so
// every seed sends the same class mix, at generator seed Base(seed)+r.
func NetRecord(seed int64, r int, durationS float64) ecg.Config {
	return Class(r%Classes).Record(Base(seed)+int64(r), durationS)
}
