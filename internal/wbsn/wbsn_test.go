package wbsn

import (
	"fmt"
	"math"
	"testing"
)

func mustBuild(t *testing.T, b *Builder) *Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderAndValidate(t *testing.T) {
	p := mustBuild(t, NewBuilder("t", 0).Compute(3).Load(2).Store(1).Barrier())
	if len(p.Instrs) != 7 {
		t.Fatalf("program length %d", len(p.Instrs))
	}
	if _, err := NewBuilder("empty", 0).Build(); err != ErrProgram {
		t.Error("empty program should fail validation")
	}
	bad := &Program{Name: "bad", Instrs: []Instr{{Kind: OpBranch, Prob: 0.5, Offset: 5}}}
	if bad.Validate() != ErrProgram {
		t.Error("branch past end should fail")
	}
	bad2 := &Program{Name: "bad2", Instrs: []Instr{{Kind: OpBranch, Prob: 1.5, Offset: 0}, {Kind: OpCompute}}}
	if bad2.Validate() != ErrProgram {
		t.Error("probability > 1 should fail")
	}
}

func TestBuilderBranchOffsets(t *testing.T) {
	p := mustBuild(t, NewBuilder("br", 0).Branch(0.5, func(b *Builder) {
		b.Compute(4)
	}).Compute(1))
	if p.Instrs[0].Kind != OpBranch || p.Instrs[0].Offset != 4 {
		t.Errorf("branch offset = %d, want 4", p.Instrs[0].Offset)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{}, nil); err != ErrMachine {
		t.Error("zero cores should fail")
	}
	p := mustBuild(t, NewBuilder("t", 0).Compute(1))
	if _, err := NewMachine(MachineConfig{Cores: 2, IMemBanks: 1, DMemBanks: 1}, []*Program{p}); err != ErrMachine {
		t.Error("program count mismatch should fail")
	}
}

func TestSingleCoreCycleCount(t *testing.T) {
	// 10 compute + 5 load + 5 store on one core: one instruction per
	// cycle, no conflicts.
	p := mustBuild(t, NewBuilder("t", 0).Compute(10).Load(5).Store(5))
	m, err := NewMachine(MachineConfig{Cores: 1, IMemBanks: 1, DMemBanks: 1, Seed: 1}, []*Program{p})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run(1e6)
	if st.Cycles != 20 {
		t.Errorf("cycles = %d, want 20", st.Cycles)
	}
	if st.Instructions != 20 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	if st.DMemAccesses != 10 {
		t.Errorf("dmem accesses = %d, want 10", st.DMemAccesses)
	}
	if st.FetchAccesses != 20 || st.FetchRequests != 20 {
		t.Errorf("fetches = %d/%d, want 20/20", st.FetchAccesses, st.FetchRequests)
	}
}

func TestBroadcastMergesLockstepFetches(t *testing.T) {
	// Three cores, same program, lock-step, no branches: every fetch
	// merges — accesses equal one core's instruction count.
	p := mustBuild(t, NewBuilder("t", 0).Compute(50).Load(10))
	progs := []*Program{p, p, p}
	m, _ := NewMachine(MachineConfig{Cores: 3, IMemBanks: 1, DMemBanks: 3, Broadcast: true, Seed: 1}, progs)
	st := m.Run(1e6)
	if st.FetchRequests != 180 {
		t.Errorf("requests = %d, want 180", st.FetchRequests)
	}
	if st.FetchAccesses != 60 {
		t.Errorf("accesses = %d, want 60 (fully merged)", st.FetchAccesses)
	}
	if r := st.MergeRatio(); math.Abs(r-3) > 1e-9 {
		t.Errorf("merge ratio = %v, want 3", r)
	}
	// Lock-step with private banks: no stalls, cycles equal one core's
	// program length.
	if st.Cycles != 60 {
		t.Errorf("cycles = %d, want 60", st.Cycles)
	}
}

func TestNoBroadcastSerializesFetches(t *testing.T) {
	p := mustBuild(t, NewBuilder("t", 0).Compute(30))
	progs := []*Program{p, p, p}
	m, _ := NewMachine(MachineConfig{Cores: 3, IMemBanks: 1, DMemBanks: 3, Broadcast: false, Seed: 1}, progs)
	st := m.Run(1e6)
	if st.MergeRatio() != 1 {
		t.Errorf("merge ratio without broadcast = %v", st.MergeRatio())
	}
	// Serialization: roughly 3x the lock-step cycles.
	if st.Cycles < 85 {
		t.Errorf("cycles = %d, expected ~90 with serialization", st.Cycles)
	}
}

func TestDataBankConflicts(t *testing.T) {
	// Two cores sharing one data bank: loads serialise.
	p := mustBuild(t, NewBuilder("t", 0).Load(20))
	progs := []*Program{p, p}
	m, _ := NewMachine(MachineConfig{Cores: 2, IMemBanks: 1, DMemBanks: 1, Broadcast: true, Seed: 1}, progs)
	st := m.Run(1e6)
	if st.DMemConflictStalls == 0 {
		t.Error("expected data-bank conflicts with a shared bank")
	}
	if st.DMemAccesses != 40 {
		t.Errorf("dmem accesses = %d, want 40", st.DMemAccesses)
	}
	// With private banks the same workload has no conflicts.
	m2, _ := NewMachine(MachineConfig{Cores: 2, IMemBanks: 1, DMemBanks: 2, Broadcast: true, Seed: 1}, progs)
	st2 := m2.Run(1e6)
	if st2.DMemConflictStalls != 0 {
		t.Errorf("private banks still conflict: %d stalls", st2.DMemConflictStalls)
	}
	if st2.Cycles >= st.Cycles {
		t.Error("multi-bank data memory should be faster")
	}
}

func TestBranchDivergenceAndBarrierRecovery(t *testing.T) {
	// Cores diverge at a data-dependent branch; the barrier realigns
	// them and merging resumes — ref [18]'s core mechanism.
	b := NewBuilder("t", 0)
	b.Repeat(40, func(b *Builder) {
		b.Compute(5)
		b.Branch(0.5, func(b *Builder) {
			b.Compute(10)
		})
		b.Barrier()
	})
	p := mustBuild(t, b)
	progs := []*Program{p, p, p, p}
	m, _ := NewMachine(MachineConfig{Cores: 4, IMemBanks: 1, DMemBanks: 4, Broadcast: true, Seed: 7}, progs)
	st := m.Run(1e6)
	// Divergence must cost something (serialized fetches of distinct PCs
	// and barrier waits)...
	if st.BarrierWaitCycles == 0 {
		t.Error("expected barrier waits from divergent branch outcomes")
	}
	// ...but merging must still do substantial work (lock-step portions).
	if st.MergeRatio() < 1.5 {
		t.Errorf("merge ratio %v, expected > 1.5 with barrier recovery", st.MergeRatio())
	}
	// All cores execute the whole program (instructions bounded by
	// program size per core).
	maxPer := int64(len(p.Instrs))
	if st.Instructions > 4*maxPer || st.Instructions < 4*(maxPer-40*10) {
		t.Errorf("instructions = %d out of expected range", st.Instructions)
	}
}

func TestBarrierAsLastInstruction(t *testing.T) {
	p := mustBuild(t, NewBuilder("t", 0).Compute(3).Barrier())
	progs := []*Program{p, p}
	m, _ := NewMachine(MachineConfig{Cores: 2, IMemBanks: 1, DMemBanks: 2, Broadcast: true, Seed: 1}, progs)
	st := m.Run(1000)
	if st.Cycles >= 1000 {
		t.Error("machine deadlocked on trailing barrier")
	}
}

func TestIdleCoreWithNilProgram(t *testing.T) {
	p := mustBuild(t, NewBuilder("t", 0).Compute(10))
	m, _ := NewMachine(MachineConfig{Cores: 2, IMemBanks: 1, DMemBanks: 2, Broadcast: true, Seed: 1}, []*Program{p, nil})
	st := m.Run(1000)
	if st.IdleCoreCycles == 0 {
		t.Error("nil-program core should accumulate idle cycles")
	}
	if st.Cycles != 10 {
		t.Errorf("cycles = %d, want 10", st.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Stats {
		b := NewBuilder("t", 0)
		b.Repeat(20, func(b *Builder) {
			b.Compute(3)
			b.Branch(0.4, func(b *Builder) { b.Compute(5) })
			b.Barrier()
		})
		p := mustBuild(t, b)
		m, _ := NewMachine(MachineConfig{Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: true, Seed: 42}, []*Program{p, p, p})
		return m.Run(1e6)
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("same seed gave different stats:\n%+v\n%+v", a, b)
	}
}

func TestVoltageForCurve(t *testing.T) {
	e := DefaultEnergy()
	if e.VoltageFor(0) != e.VMin {
		t.Error("zero frequency should give VMin")
	}
	if e.VoltageFor(e.FMax*2) != e.VMax {
		t.Error("beyond FMax should clamp to VMax")
	}
	mid := e.VoltageFor(e.FMax / 2)
	if mid <= e.VMin || mid >= e.VMax {
		t.Error("mid frequency voltage out of range")
	}
	// Monotone.
	prev := 0.0
	for f := 0.0; f <= e.FMax; f += e.FMax / 10 {
		v := e.VoltageFor(f)
		if v < prev {
			t.Fatal("voltage curve not monotone")
		}
		prev = v
	}
}

func TestPowerScalesWithVoltage(t *testing.T) {
	e := DefaultEnergy()
	st := Stats{Cycles: 10000, Instructions: 10000, FetchAccesses: 10000, DMemAccesses: 1000, InterconnectTxns: 11000}
	// Same work, half deadline: higher f, higher V, more than 2x power.
	slow := e.Power("slow", st, 1, 0.1, 1, 0.1)
	fast := e.Power("fast", st, 1, 0.02, 1, 0.02)
	if fast.Freq <= slow.Freq || fast.Voltage <= slow.Voltage {
		t.Fatal("tighter deadline should raise the operating point")
	}
	// Equal work: the dynamic (non-leakage) energy must be strictly
	// higher at the higher operating voltage (V² scaling).
	eDynSlow := (slow.TotalW() - slow.LeakW) * 0.1
	eDynFast := (fast.TotalW() - fast.LeakW) * 0.02
	if eDynFast <= eDynSlow {
		t.Errorf("V² scaling missing: fast dynamic energy %.3g <= slow %.3g", eDynFast, eDynSlow)
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := RunFigure7(DefaultEnergy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("expected 3 apps, got %d", len(res))
	}
	names := map[string]bool{}
	maxRed := 0.0
	for _, r := range res {
		names[r.App] = true
		// The Figure 7 shape: MC always below SC.
		if r.Reduction <= 0.15 {
			t.Errorf("%s: MC reduction %.3f, want clearly positive", r.App, r.Reduction)
		}
		if r.Reduction > 0.60 {
			t.Errorf("%s: MC reduction %.3f implausibly high", r.App, r.Reduction)
		}
		if r.Reduction > maxRed {
			maxRed = r.Reduction
		}
		// Broadcast merging shrinks the IMem share on MC.
		scIMemShare := r.SC.IMemW / r.SC.TotalW()
		mcIMemShare := r.MC.IMemW / r.MC.TotalW()
		if mcIMemShare >= scIMemShare {
			t.Errorf("%s: IMem share did not shrink (%.3f vs %.3f)", r.App, mcIMemShare, scIMemShare)
		}
		// The MC operating point sits at lower V and f.
		if r.MC.Voltage >= r.SC.Voltage || r.MC.Freq >= r.SC.Freq {
			t.Errorf("%s: MC operating point not scaled down", r.App)
		}
		if r.MCStats.MergeRatio() < 2 {
			t.Errorf("%s: merge ratio %.2f, expected near core count", r.App, r.MCStats.MergeRatio())
		}
	}
	for _, want := range []string{"3L-MF", "3L-MMD", "RP-CLASS"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
	// "Up to 40%": the best app must clear 35%.
	if maxRed < 0.35 {
		t.Errorf("max reduction %.3f, want >= 0.35 (paper: up to 40%%)", maxRed)
	}
}

func TestAblationBroadcastOff(t *testing.T) {
	// Disabling the merging interconnect must cost cycles and fetch
	// accesses on the lock-step workload.
	app := App3LMF()
	p, err := app.mcProgram()
	if err != nil {
		t.Fatal(err)
	}
	progs := []*Program{p, p, p}
	on, _ := NewMachine(MachineConfig{Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: true, Seed: 1}, progs)
	off, _ := NewMachine(MachineConfig{Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: false, Seed: 1}, progs)
	stOn := on.Run(50e6)
	stOff := off.Run(50e6)
	if stOff.Cycles <= stOn.Cycles {
		t.Errorf("broadcast off should be slower: %d vs %d", stOff.Cycles, stOn.Cycles)
	}
	if stOff.FetchAccesses <= stOn.FetchAccesses {
		t.Errorf("broadcast off should access IMem more: %d vs %d", stOff.FetchAccesses, stOn.FetchAccesses)
	}
}

func TestMemoryFootprint(t *testing.T) {
	p1 := mustBuild(t, NewBuilder("a", 0).Compute(100))
	p2 := mustBuild(t, NewBuilder("b", 0).Compute(50))
	// Duplicate pointers counted once; 16-bit instructions.
	total := MemoryFootprintBytes([]*Program{p1, p1, p2, nil}, 1000)
	if total != 1000+2*100+2*50 {
		t.Errorf("footprint = %d", total)
	}
}

func TestDutyCycleAt(t *testing.T) {
	if d := DutyCycleAt(70_000, 1e6, 1.0); math.Abs(d-0.07) > 1e-12 {
		t.Errorf("duty cycle = %v, want 0.07", d)
	}
	if !math.IsInf(DutyCycleAt(100, 0, 1), 1) {
		t.Error("zero frequency should give +Inf duty")
	}
}

func TestCyclesForDeadline(t *testing.T) {
	if f := CyclesForDeadline(1000, 1, 0.5); f != 2000 {
		t.Errorf("f = %v, want 2000", f)
	}
	if f := CyclesForDeadline(1000, 1, 0); f != 1000 {
		t.Errorf("f with invalid duty = %v, want 1000", f)
	}
}

func TestReductionEdge(t *testing.T) {
	if Reduction(PowerBreakdown{}, PowerBreakdown{}) != 0 {
		t.Error("zero baseline should return 0")
	}
}

func TestLoadImbalanceIsNotCritical(t *testing.T) {
	// Ref [18] via the paper: "fine-tuned load balancing is not a
	// necessary precondition for energy efficiency in cardiac monitoring
	// systems". Give one core 25% more work than its peers: the
	// multi-core configuration must still clearly beat the single-core
	// one.
	em := DefaultEnergy()
	mkLead := func(compute, bank int) *Program {
		b := NewBuilder("mf-lead", bank)
		b.Repeat(256, func(b *Builder) {
			b.Load(8)
			b.Compute(compute)
			b.Store(6)
			b.Barrier()
		})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Per the paper, the mapping methodology assigns programs to
	// distinct banks "to avoid program memory conflicts". The heavy lead
	// does 30% more work per sample, so the light cores idle at every
	// barrier.
	heavy := mkLead(130, 0)
	light := mkLead(100, 1)
	mc, err := NewMachine(MachineConfig{
		Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: true, Seed: 1,
	}, []*Program{heavy, light, light})
	if err != nil {
		t.Fatal(err)
	}
	mcStats := mc.Run(50e6)
	// Single-core equivalent: all three leads serially.
	sb := NewBuilder("mf-sc", 0)
	for _, compute := range []int{130, 100, 100} {
		sb.Repeat(256, func(b *Builder) {
			b.Load(8)
			b.Compute(compute)
			b.Store(6)
		})
	}
	scProg, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewMachine(MachineConfig{
		Cores: 1, IMemBanks: 2, DMemBanks: 1, Broadcast: false, Seed: 1,
	}, []*Program{scProg})
	if err != nil {
		t.Fatal(err)
	}
	scStats := sc.Run(50e6)
	mcPow := em.Power("mc-imbalanced", mcStats, 3, 1.0, 0.08, 1.0)
	scPow := em.Power("sc", scStats, 1, 1.0, 0.08, 1.0)
	red := Reduction(scPow, mcPow)
	if red < 0.25 {
		t.Errorf("imbalanced multi-core reduction %.3f, want >= 0.25 (the paper's no-fine-balancing claim)", red)
	}
	// The imbalance shows up as barrier waits on the light cores...
	if mcStats.BarrierWaitCycles == 0 {
		t.Error("expected barrier waits from the imbalanced mapping")
	}
	// ...but fetch merging still happens while all cores are active.
	if mcStats.MergeRatio() < 1.3 {
		t.Errorf("merge ratio %.2f too low even for imbalanced lock-step", mcStats.MergeRatio())
	}
}

func TestPerCoreStats(t *testing.T) {
	p := mustBuild(t, NewBuilder("t", 0).Compute(20).Barrier().Compute(10))
	short := mustBuild(t, NewBuilder("s", 1).Compute(5).Barrier().Compute(10))
	m, err := NewMachine(MachineConfig{Cores: 2, IMemBanks: 2, DMemBanks: 2, Broadcast: true, Seed: 1},
		[]*Program{p, short})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run(1e6)
	cs := m.CoreStats()
	if len(cs) != 2 {
		t.Fatalf("got %d core stats", len(cs))
	}
	if cs[0].Instructions != 31 || cs[1].Instructions != 16 {
		t.Errorf("per-core instructions %d/%d, want 31/16", cs[0].Instructions, cs[1].Instructions)
	}
	if cs[0].Instructions+cs[1].Instructions != st.Instructions {
		t.Error("per-core instructions do not sum to the total")
	}
	// The short program's core waits at the barrier for the long one.
	if cs[1].BarrierWaitCycles < 10 {
		t.Errorf("short core waited %d cycles, expected ~15", cs[1].BarrierWaitCycles)
	}
	if cs[0].BarrierWaitCycles > 2 {
		t.Errorf("long core should barely wait, got %d", cs[0].BarrierWaitCycles)
	}
	if cs[0].FinishCycle == 0 || cs[1].FinishCycle == 0 {
		t.Error("finish cycles not recorded")
	}
	if cs[1].FinishCycle < cs[0].FinishCycle {
		t.Error("cores released from the final barrier together; short core cannot finish first here")
	}
}

func TestCompoundPipelineMapping(t *testing.T) {
	res, err := RunCompound(DefaultEnergy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The full pipeline on 8 cores must beat the serial single core.
	if res.Reduction < 0.2 {
		t.Errorf("compound mapping reduction %.3f, want >= 0.2", res.Reduction)
	}
	// Lock-step merging within the replicated stages.
	if res.MCStats.MergeRatio() < 1.8 {
		t.Errorf("compound merge ratio %.2f", res.MCStats.MergeRatio())
	}
	// Producer-consumer hand-offs hit shared banks: some conflicts are
	// expected but they must not dominate.
	if res.MCStats.DMemConflictStalls == 0 {
		t.Error("expected some producer-consumer bank contention")
	}
	if res.MCStats.DMemConflictStalls > res.MCStats.Cycles {
		t.Error("bank contention dominates the compound mapping")
	}
	// The imbalanced stages (CS cores are light) idle at barriers without
	// destroying the saving — the no-fine-balancing claim at system scale.
	if res.MCStats.BarrierWaitCycles == 0 {
		t.Error("expected barrier waits from stage imbalance")
	}
}

func TestCoreScalingCurve(t *testing.T) {
	res, err := RunCoreScaling(DefaultEnergy(), 1, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d points", len(res))
	}
	// Power falls monotonically with core count in this regime (the
	// leakage floor is far below the dynamic savings at these loads).
	for i := 1; i < len(res); i++ {
		if res[i].MC.TotalW() >= res[i-1].MC.TotalW() {
			t.Errorf("power did not fall from %d to %d cores: %.3g vs %.3g",
				1<<(i-1), 1<<i, res[i-1].MC.TotalW(), res[i].MC.TotalW())
		}
		if res[i].MC.Voltage >= res[i-1].MC.Voltage {
			t.Error("voltage should fall with more cores")
		}
	}
	// But with diminishing returns: the 4→8 step saves a smaller fraction
	// than the 1→2 step.
	step12 := 1 - res[1].MC.TotalW()/res[0].MC.TotalW()
	step48 := 1 - res[3].MC.TotalW()/res[2].MC.TotalW()
	if step48 >= step12 {
		t.Errorf("expected diminishing returns: 1→2 saves %.3f, 4→8 saves %.3f", step12, step48)
	}
	// Invalid core counts rejected.
	if _, err := RunCoreScaling(DefaultEnergy(), 1, []int{3}); err != ErrMachine {
		t.Error("core count not dividing 8 should fail")
	}
}

// The sweeps and estimates below are read only by the tests and
// benchmarks: no program prints the core-count curve or the memory and
// deadline figures.

// RunCoreScaling sweeps the core count for an 8-lead conditioning
// workload (each of P cores filters 8/P leads serially, in lock-step
// with its peers): the curve behind Section IV.B's claim that the high
// degree of parallelism in cardiac workloads converts directly into
// voltage-scaling headroom. Valid core counts divide 8.
func RunCoreScaling(em EnergyModel, seed int64, coreCounts []int) ([]AppResult, error) {
	const leads = 8
	var out []AppResult
	for _, p := range coreCounts {
		if p < 1 || leads%p != 0 {
			return nil, ErrMachine
		}
		perCoreLeads := leads / p
		b := NewBuilder("8L-MF", 0)
		b.Repeat(256, func(b *Builder) {
			b.Repeat(perCoreLeads, func(b *Builder) {
				perSampleMF(b)
				if p > 1 {
					// Re-align after every lead's data-dependent branch
					// (the paper's barrier-insertion technique).
					b.Barrier()
				}
			})
		})
		prog, err := b.Build()
		if err != nil {
			return nil, err
		}
		progs := make([]*Program, p)
		for i := range progs {
			progs[i] = prog
		}
		m, err := NewMachine(MachineConfig{
			Cores: p, IMemBanks: 2, DMemBanks: p, Broadcast: true, Seed: seed,
		}, progs)
		if err != nil {
			return nil, err
		}
		st := m.Run(50_000_000)
		pow := em.Power(labelForCores(p), st, p, 1.0, 0.08, 1.0)
		out = append(out, AppResult{App: labelForCores(p), MC: pow, MCStats: st})
	}
	// Express each point's reduction against the single-core entry.
	for i := range out {
		out[i].SC = out[0].MC
		out[i].SCStats = out[0].MCStats
		out[i].Reduction = Reduction(out[0].MC, out[i].MC)
	}
	return out, nil
}

func labelForCores(p int) string {
	return "8L-MF-" + string(rune('0'+p)) + "c"
}

// MemoryFootprintBytes estimates the program + data memory footprint of
// a program set: instructions at 2 bytes (16-bit ISA) plus the given data
// bytes. Used by the Text-1 experiment to check the 7.2 kB figure.
func MemoryFootprintBytes(progs []*Program, dataBytes int) int {
	seen := map[*Program]bool{}
	total := dataBytes
	for _, p := range progs {
		if p == nil || seen[p] {
			continue
		}
		seen[p] = true
		total += 2 * len(p.Instrs)
	}
	return total
}

// CyclesForDeadline returns the frequency (Hz) needed to execute the
// given cycle count within the deadline seconds at the duty-cycle cap.
func CyclesForDeadline(cycles int64, deadline, dutyCap float64) float64 {
	if dutyCap <= 0 || dutyCap > 1 {
		dutyCap = 1
	}
	return float64(cycles) / (deadline * dutyCap)
}

// CoreStats returns the per-core statistics of the last Run.
func (m *Machine) CoreStats() []CoreStats {
	out := make([]CoreStats, len(m.coreStats))
	copy(out, m.coreStats)
	return out
}

// BenchmarkCoreScaling sweeps the platform's core count on an 8-lead
// conditioning workload (Section IV.B: parallelism converts into
// voltage-scaling headroom, with diminishing returns at the leakage
// floor).
func BenchmarkCoreScaling(b *testing.B) {
	var res []AppResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunCoreScaling(DefaultEnergy(), 1, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, r := range res {
		b.ReportMetric(r.MC.TotalW()*1e6, fmt.Sprintf("µW-%dcores", 1<<i))
	}
}

// BenchmarkAblationBroadcast quantifies the broadcast interconnect of
// ref [18]: cycles and program-memory accesses with merging on vs off.
func BenchmarkAblationBroadcast(b *testing.B) {
	app := App3LMF()
	mcProg, _, err := app.Programs()
	if err != nil {
		b.Fatal(err)
	}
	progs := []*Program{mcProg, mcProg, mcProg}
	var on, off Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mOn, err := NewMachine(MachineConfig{
			Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: true, Seed: 1,
		}, progs)
		if err != nil {
			b.Fatal(err)
		}
		on = mOn.Run(50e6)
		mOff, err := NewMachine(MachineConfig{
			Cores: 3, IMemBanks: 2, DMemBanks: 3, Broadcast: false, Seed: 1,
		}, progs)
		if err != nil {
			b.Fatal(err)
		}
		off = mOff.Run(50e6)
	}
	b.ReportMetric(float64(on.FetchAccesses), "imem-accesses-on")
	b.ReportMetric(float64(off.FetchAccesses), "imem-accesses-off")
	b.ReportMetric(float64(off.Cycles)/float64(on.Cycles), "cycle-penalty-off")
	if off.Cycles <= on.Cycles {
		b.Error("disabling broadcast should cost cycles")
	}
}
