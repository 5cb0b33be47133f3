package wbsn

// This file builds the three Figure 7 workloads as instruction streams
// whose operation counts mirror the actual kernels implemented in
// internal/morpho, internal/wavelet/delineation and internal/classify:
//
//   - 3L-MF   — morphological filtering of 3 ECG leads (ref [9]);
//   - 3L-MMD  — multiscale morphological/wavelet delineation of 3 leads
//     (refs [12][13]);
//   - RP-CLASS — random-projection heartbeat classification (ref [14]).
//
// The per-sample instruction budgets include the address arithmetic,
// loop and branch overhead a 16-bit integer MCU spends around each
// abstract operation (~3-5 machine instructions per kernel op), so the
// cycle counts land in the regime the embedded ports of refs [12][14]
// report.

// AppSpec describes one Figure 7 application workload.
type AppSpec struct {
	// Name is the Figure 7 label.
	Name string
	// Cores is the multi-core mapping width (one lead or feature slice
	// per core).
	Cores int
	// DeadlineS is the real-time window for one batch of work.
	DeadlineS float64
	// DutyCap bounds the active fraction of the deadline.
	DutyCap float64
	// PeriodS is the recurrence interval over which power is averaged
	// (= DeadlineS for streaming apps; the beat interval for per-beat
	// classification).
	PeriodS float64
	// mcProgram and scProgram build the per-core parallel program and the
	// serialized single-core equivalent.
	mcProgram func() (*Program, error)
	scProgram func() (*Program, error)
}

// perSampleMF appends one sample of morphological conditioning: the
// four van Herk sliding stages of the baseline filter plus the short
// open/close noise stage, with one data-dependent branch for the
// monotonic-wedge maintenance.
func perSampleMF(b *Builder) {
	b.Load(8)
	b.Compute(80)
	b.Branch(0.30, func(b *Builder) {
		b.Compute(14)
	})
	b.Compute(20)
	b.Store(6)
}

// perSampleMMD appends one sample of the delineation transform: five
// à-trous scales (shift-add filter bank) plus modulus-maxima threshold
// logic with a data-dependent branch on the detection path.
func perSampleMMD(b *Builder) {
	b.Load(10)
	b.Compute(90)
	b.Branch(0.12, func(b *Builder) {
		b.Compute(25)
		b.Store(2)
	})
	b.Compute(18)
	b.Store(5)
}

// perBeatRPSlice appends one core's slice of the per-beat classification:
// a quarter of the random-projection rows (166-sample window × 3 leads,
// one third of entries non-zero) plus its share of the prototype
// evaluations with the four-segment linearized Gaussian.
func perBeatRPSlice(b *Builder) {
	// RP slice: 4 of 16 rows over 498 inputs, 1/3 density → ~664 MACs.
	b.Repeat(8, func(b *Builder) {
		b.Load(21)
		b.Compute(83)
	})
	// Prototype distances + linearized exponential for 3 of 12 kernels.
	b.Repeat(3, func(b *Builder) {
		b.Load(16)
		b.Compute(52)
		b.Branch(0.5, func(b *Builder) {
			b.Compute(6)
		})
	})
	b.Store(4)
}

// buildStreamApp builds the MC/SC program pair for a per-sample
// streaming kernel over `samples` samples: the MC program is one lead's
// work with a barrier per sample block (the paper's lock-step recovery),
// the SC program is `leads` leads' work serialized.
func buildStreamApp(name string, perSample func(*Builder), samples, blockLen, leads int) (mc, sc func() (*Program, error)) {
	mc = func() (*Program, error) {
		b := NewBuilder(name+"-mc", 0)
		blocks := samples / blockLen
		b.Repeat(blocks, func(b *Builder) {
			b.Repeat(blockLen, perSample)
			b.Barrier()
		})
		return b.Build()
	}
	sc = func() (*Program, error) {
		b := NewBuilder(name+"-sc", 0)
		b.Repeat(leads, func(b *Builder) {
			b.Repeat(samples, perSample)
		})
		return b.Build()
	}
	return mc, sc
}

// App3LMF returns the 3-lead morphological-filtering workload: one
// second of 256 Hz data, three cores in lock-step (one per lead).
func App3LMF() AppSpec {
	mc, sc := buildStreamApp("3L-MF", perSampleMF, 256, 1, 3)
	return AppSpec{
		Name:      "3L-MF",
		Cores:     3,
		DeadlineS: 1.0,
		DutyCap:   0.08,
		PeriodS:   1.0,
		mcProgram: mc,
		scProgram: sc,
	}
}

// App3LMMD returns the 3-lead delineation workload.
func App3LMMD() AppSpec {
	mc, sc := buildStreamApp("3L-MMD", perSampleMMD, 256, 1, 3)
	return AppSpec{
		Name:      "3L-MMD",
		Cores:     3,
		DeadlineS: 1.0,
		DutyCap:   0.08,
		PeriodS:   1.0,
		mcProgram: mc,
		scProgram: sc,
	}
}

// AppRPClass returns the per-beat random-projection classification
// workload: four cores each computing a projection/prototype slice, with
// a 5 ms per-beat latency budget (the classifier must retire before the
// next processing slot of the duty-cycled schedule) and power averaged
// over the mean RR interval.
func AppRPClass() AppSpec {
	mc := func() (*Program, error) {
		b := NewBuilder("RP-CLASS-mc", 0)
		perBeatRPSlice(b)
		b.Barrier()
		// Argmax reduction on one slice's share.
		b.Load(4)
		b.Compute(10)
		b.Barrier()
		return b.Build()
	}
	sc := func() (*Program, error) {
		b := NewBuilder("RP-CLASS-sc", 0)
		b.Repeat(4, perBeatRPSlice)
		b.Load(16)
		b.Compute(40)
		return b.Build()
	}
	return AppSpec{
		Name:      "RP-CLASS",
		Cores:     4,
		DeadlineS: 0.005,
		DutyCap:   1.0,
		PeriodS:   0.8,
		mcProgram: mc,
		scProgram: sc,
	}
}

// Programs materialises the app's multi-core and single-core programs,
// e.g. for memory-footprint accounting.
func (a AppSpec) Programs() (mc, sc *Program, err error) {
	mc, err = a.mcProgram()
	if err != nil {
		return nil, nil, err
	}
	sc, err = a.scProgram()
	if err != nil {
		return nil, nil, err
	}
	return mc, sc, nil
}

// Figure7Apps returns the three workloads of the Figure 7 comparison.
func Figure7Apps() []AppSpec {
	return []AppSpec{App3LMF(), App3LMMD(), AppRPClass()}
}

// AppResult is one app's MC-vs-SC outcome.
type AppResult struct {
	App       string
	MC, SC    PowerBreakdown
	MCStats   Stats
	SCStats   Stats
	Reduction float64
}

// RunApp simulates both configurations of one app on the given energy
// model and machine seed.
func RunApp(app AppSpec, em EnergyModel, seed int64) (AppResult, error) {
	mcProg, err := app.mcProgram()
	if err != nil {
		return AppResult{}, err
	}
	scProg, err := app.scProgram()
	if err != nil {
		return AppResult{}, err
	}
	// MC: every core runs the shared program image (same *Program, so
	// lock-step fetches merge), each on its private data bank.
	mcProgs := make([]*Program, app.Cores)
	for i := range mcProgs {
		mcProgs[i] = mcProg
	}
	mcMachine, err := NewMachine(MachineConfig{
		Cores: app.Cores, IMemBanks: 2, DMemBanks: app.Cores,
		Broadcast: true, Seed: seed,
	}, mcProgs)
	if err != nil {
		return AppResult{}, err
	}
	scMachine, err := NewMachine(MachineConfig{
		Cores: 1, IMemBanks: 2, DMemBanks: 1,
		Broadcast: false, Seed: seed,
	}, []*Program{scProg})
	if err != nil {
		return AppResult{}, err
	}
	const maxCycles = 50_000_000
	mcStats := mcMachine.Run(maxCycles)
	scStats := scMachine.Run(maxCycles)
	mcPow := em.Power(app.Name+"-MC", mcStats, app.Cores, app.DeadlineS, app.DutyCap, app.PeriodS)
	scPow := em.Power(app.Name+"-SC", scStats, 1, app.DeadlineS, app.DutyCap, app.PeriodS)
	return AppResult{
		App: app.Name, MC: mcPow, SC: scPow,
		MCStats: mcStats, SCStats: scStats,
		Reduction: Reduction(scPow, mcPow),
	}, nil
}

// RunFigure7 runs all three apps and returns their results in order.
func RunFigure7(em EnergyModel, seed int64) ([]AppResult, error) {
	var out []AppResult
	for _, app := range Figure7Apps() {
		r, err := RunApp(app, em, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AppCompound returns the whole-pipeline mapping of Figure 3: an 8-core
// platform running the full cardiac chain concurrently — three cores
// condition the three leads (MF), three delineate them (MMD, consuming
// the conditioned samples through shared data banks in the
// producer-consumer style the paper describes), and two run the CS
// encoder and the per-beat classifier slice. The single-core reference
// executes the same work serially.
func AppCompound() AppSpec {
	mkStage := func(name string, bank int, perSample func(*Builder), consumeFrom int) func() (*Program, error) {
		return func() (*Program, error) {
			b := NewBuilder(name, bank)
			b.Repeat(256, func(b *Builder) {
				if consumeFrom >= 0 {
					// Producer-consumer hand-off: read the upstream
					// stage's output from its data bank.
					b.LoadShared(consumeFrom, 2)
				}
				perSample(b)
				b.Barrier()
			})
			return b.Build()
		}
	}
	perSampleCS := func(b *Builder) {
		// Amortised CS encoding (d=4 adds across 3 leads) plus the
		// classifier slice triggered on ~1 sample in 200.
		b.Load(3)
		b.Compute(14)
		b.Branch(0.005, func(b *Builder) {
			b.Repeat(2, func(b *Builder) {
				b.Load(21)
				b.Compute(83)
			})
		})
		b.Store(2)
	}
	cores := 8
	spec := AppSpec{
		Name:      "PIPELINE-8C",
		Cores:     cores,
		DeadlineS: 1.0,
		DutyCap:   0.08,
		PeriodS:   1.0,
	}
	// The generic RunApp replicates one program across cores; the
	// compound mapping needs distinct per-core programs, so it provides
	// its own runner through RunCompound. Keep builders for footprint
	// accounting.
	spec.mcProgram = mkStage("mf", 0, perSampleMF, -1)
	spec.scProgram = func() (*Program, error) {
		b := NewBuilder("pipeline-sc", 0)
		b.Repeat(3, func(b *Builder) { b.Repeat(256, perSampleMF) })
		b.Repeat(3, func(b *Builder) { b.Repeat(256, perSampleMMD) })
		b.Repeat(2, func(b *Builder) { b.Repeat(256, perSampleCS) })
		return b.Build()
	}
	return spec
}

// RunCompound simulates the Figure 3 compound mapping: eight cores with
// per-stage programs against the serial single-core equivalent, and
// returns the MC/SC power comparison.
func RunCompound(em EnergyModel, seed int64) (AppResult, error) {
	spec := AppCompound()
	mkStage := func(name string, bank int, perSample func(*Builder), consumeFrom int) (*Program, error) {
		b := NewBuilder(name, bank)
		b.Repeat(256, func(b *Builder) {
			if consumeFrom >= 0 {
				b.LoadShared(consumeFrom, 2)
			}
			perSample(b)
			b.Barrier()
		})
		return b.Build()
	}
	perSampleCS := func(b *Builder) {
		b.Load(3)
		b.Compute(14)
		b.Branch(0.005, func(b *Builder) {
			b.Repeat(2, func(b *Builder) {
				b.Load(21)
				b.Compute(83)
			})
		})
		b.Store(2)
	}
	mf, err := mkStage("mf", 0, perSampleMF, -1)
	if err != nil {
		return AppResult{}, err
	}
	mmd, err := mkStage("mmd", 1, perSampleMMD, 0)
	if err != nil {
		return AppResult{}, err
	}
	csp, err := mkStage("cs", 2, perSampleCS, 3)
	if err != nil {
		return AppResult{}, err
	}
	progs := []*Program{mf, mf, mf, mmd, mmd, mmd, csp, csp}
	mcMachine, err := NewMachine(MachineConfig{
		Cores: 8, IMemBanks: 3, DMemBanks: 8, Broadcast: true, Seed: seed,
	}, progs)
	if err != nil {
		return AppResult{}, err
	}
	scProg, err := spec.scProgram()
	if err != nil {
		return AppResult{}, err
	}
	scMachine, err := NewMachine(MachineConfig{
		Cores: 1, IMemBanks: 3, DMemBanks: 1, Broadcast: false, Seed: seed,
	}, []*Program{scProg})
	if err != nil {
		return AppResult{}, err
	}
	const maxCycles = 50_000_000
	mcStats := mcMachine.Run(maxCycles)
	scStats := scMachine.Run(maxCycles)
	mcPow := em.Power(spec.Name+"-MC", mcStats, 8, spec.DeadlineS, spec.DutyCap, spec.PeriodS)
	scPow := em.Power(spec.Name+"-SC", scStats, 1, spec.DeadlineS, spec.DutyCap, spec.PeriodS)
	return AppResult{
		App: spec.Name, MC: mcPow, SC: scPow,
		MCStats: mcStats, SCStats: scStats,
		Reduction: Reduction(scPow, mcPow),
	}, nil
}
