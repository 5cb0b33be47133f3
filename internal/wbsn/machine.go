package wbsn

import "math/rand"

// MachineConfig describes the simulated platform instance.
type MachineConfig struct {
	// Cores is the number of processing elements.
	Cores int
	// IMemBanks and DMemBanks are the bank counts of the two memory
	// subsystems (Figure 3 shows independent multi-bank program and data
	// memories).
	IMemBanks, DMemBanks int
	// Broadcast enables the merging interconnect: identical concurrent
	// fetches collapse into one access. Disabling it is the ablation of
	// ref [18]'s key mechanism.
	Broadcast bool
	// Seed drives the per-core branch outcomes.
	Seed int64
}

// Validate checks the configuration.
func (c MachineConfig) Validate() error {
	if c.Cores < 1 || c.IMemBanks < 1 || c.DMemBanks < 1 {
		return ErrMachine
	}
	return nil
}

// Stats aggregates the architectural events of one run.
type Stats struct {
	// Cycles is the wall-clock cycle count (all cores share the clock).
	Cycles int64
	// Instructions is the total executed instruction count over all
	// cores.
	Instructions int64
	// FetchRequests counts instruction fetches before merging;
	// FetchAccesses counts physical program-memory accesses after the
	// broadcast interconnect merged identical requests.
	FetchRequests, FetchAccesses int64
	// IMemConflictStalls counts core-cycles lost to program-memory bank
	// conflicts (distinct addresses, same bank, same cycle).
	IMemConflictStalls int64
	// DMemAccesses counts data-bank accesses; DMemConflictStalls counts
	// core-cycles serialised on data-bank conflicts.
	DMemAccesses, DMemConflictStalls int64
	// BarrierWaitCycles counts core-cycles spent blocked at barriers.
	BarrierWaitCycles int64
	// InterconnectTxns counts transactions on the merging interconnect
	// (one per physical access).
	InterconnectTxns int64
	// ActiveCoreCycles counts core-cycles doing useful work;
	// IdleCoreCycles counts cycles after a core finished its program.
	ActiveCoreCycles, IdleCoreCycles int64
}

// MergeRatio returns FetchRequests/FetchAccesses — the factor by which
// broadcasting reduced program-memory traffic (1.0 = no merging).
func (s Stats) MergeRatio() float64 {
	if s.FetchAccesses == 0 {
		return 1
	}
	return float64(s.FetchRequests) / float64(s.FetchAccesses)
}

// CoreStats is one core's share of the run statistics.
type CoreStats struct {
	// Instructions executed by this core.
	Instructions int64
	// BarrierWaitCycles spent blocked at barriers.
	BarrierWaitCycles int64
	// StallCycles lost to fetch or data-bank arbitration.
	StallCycles int64
	// FinishCycle is the cycle at which the core retired (0 if it never
	// ran or the run was truncated).
	FinishCycle int64
}

// coreState is one core's execution context.
type coreState struct {
	prog      *Program
	pc        int
	dataBank  int
	done      bool
	atBarrier bool
	stalled   bool // lost this cycle's bank arbitration
	rng       *rand.Rand
}

// Machine simulates one platform configuration.
type Machine struct {
	cfg       MachineConfig
	cores     []*coreState
	coreStats []CoreStats
}

// NewMachine builds a machine and assigns each core its program. A nil
// program leaves the core idle. Core i's private data bank is
// i % DMemBanks.
func NewMachine(cfg MachineConfig, progs []*Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) != cfg.Cores {
		return nil, ErrMachine
	}
	m := &Machine{cfg: cfg, coreStats: make([]CoreStats, cfg.Cores)}
	for i := 0; i < cfg.Cores; i++ {
		cs := &coreState{
			prog:     progs[i],
			dataBank: i % cfg.DMemBanks,
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		if cs.prog == nil {
			cs.done = true
		}
		m.cores = append(m.cores, cs)
	}
	return m, nil
}

// Run simulates until every core finishes or maxCycles elapses, and
// returns the event statistics.
func (m *Machine) Run(maxCycles int64) Stats {
	var st Stats
	type fetchKey struct {
		prog *Program
		pc   int
	}
	for st.Cycles < maxCycles {
		allDone := true
		for _, c := range m.cores {
			if !c.done {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		st.Cycles++
		// Phase 1: collect fetch requests from runnable cores.
		requests := make(map[fetchKey][]*coreState)
		barrierArrivals := 0
		barrierWaiters := 0
		for ci, c := range m.cores {
			if c.done {
				st.IdleCoreCycles++
				continue
			}
			if c.atBarrier {
				barrierWaiters++
				m.coreStats[ci].BarrierWaitCycles++
				continue
			}
			key := fetchKey{c.prog, c.pc}
			requests[key] = append(requests[key], c)
		}
		// Phase 2: arbitrate program-memory banks in deterministic
		// (bank, pc) order. Each distinct (program, pc) needs one access
		// to the program's bank; a bank serves one access per cycle. With
		// broadcast, one access feeds every requester; without it, even
		// identical requests serialise.
		keys := make([]fetchKey, 0, len(requests))
		for key := range requests {
			keys = append(keys, key)
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && fetchLess(keys[j], keys[j-1]); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		// Rotate the arbitration starting point every cycle so divergent
		// groups share the bank fairly instead of starving the core that
		// ran ahead.
		if len(keys) > 1 {
			rot := int(st.Cycles) % len(keys)
			rotated := make([]fetchKey, 0, len(keys))
			rotated = append(rotated, keys[rot:]...)
			rotated = append(rotated, keys[:rot]...)
			keys = rotated
		}
		bankClaimed := make(map[int]bool)
		granted := make(map[*coreState]bool)
		for _, key := range keys {
			cores := requests[key]
			bank := key.prog.IMemBank % m.cfg.IMemBanks
			if bankClaimed[bank] {
				// Bank busy this cycle: all these cores stall and will
				// re-request next cycle.
				st.IMemConflictStalls += int64(len(cores))
				continue
			}
			bankClaimed[bank] = true
			st.FetchAccesses++
			st.InterconnectTxns++
			if m.cfg.Broadcast {
				// One physical access feeds every lock-step requester.
				st.FetchRequests += int64(len(cores))
				for _, c := range cores {
					granted[c] = true
				}
			} else {
				// Serialise: one core served per cycle even at the same
				// address.
				st.FetchRequests++
				granted[cores[0]] = true
				st.IMemConflictStalls += int64(len(cores) - 1)
			}
		}
		// Phase 3: execute granted cores, arbitrating data banks.
		dBankClaimed := make(map[int]bool)
		for ci, c := range m.cores {
			if c.done || c.atBarrier {
				continue
			}
			if !granted[c] {
				m.coreStats[ci].StallCycles++
				continue // stalled on fetch this cycle
			}
			in := c.prog.Instrs[c.pc]
			switch in.Kind {
			case OpLoad, OpStore:
				bank := in.Bank
				if bank < 0 {
					bank = c.dataBank
				}
				bank %= m.cfg.DMemBanks
				if dBankClaimed[bank] {
					st.DMemConflictStalls++
					m.coreStats[ci].StallCycles++
					continue // retry next cycle (fetch repeats)
				}
				dBankClaimed[bank] = true
				st.DMemAccesses++
				st.InterconnectTxns++
				c.pc++
			case OpCompute:
				c.pc++
			case OpBranch:
				if c.rng.Float64() < in.Prob {
					c.pc += 1 + in.Offset
				} else {
					c.pc++
				}
			case OpBarrier:
				c.atBarrier = true
				barrierArrivals++
				c.pc++
			}
			st.Instructions++
			st.ActiveCoreCycles++
			m.coreStats[ci].Instructions++
		}
		// Phase 4: barrier release — when every unfinished core is at a
		// barrier, release them all (single barrier group).
		waiting, unfinished := 0, 0
		for _, c := range m.cores {
			if c.done {
				continue
			}
			unfinished++
			if c.atBarrier {
				waiting++
			}
		}
		if unfinished > 0 && waiting == unfinished {
			for _, c := range m.cores {
				c.atBarrier = false
			}
		} else {
			st.BarrierWaitCycles += int64(waiting)
		}
		// Phase 5: retire finished cores.
		for ci, c := range m.cores {
			if !c.done && c.pc >= len(c.prog.Instrs) && !c.atBarrier {
				c.done = true
				m.coreStats[ci].FinishCycle = st.Cycles
			}
		}
	}
	return st
}

// fetchLess orders fetch keys deterministically: by program bank, then
// program name, then PC.
func fetchLess(a, b struct {
	prog *Program
	pc   int
}) bool {
	if a.prog.IMemBank != b.prog.IMemBank {
		return a.prog.IMemBank < b.prog.IMemBank
	}
	if a.prog.Name != b.prog.Name {
		return a.prog.Name < b.prog.Name
	}
	return a.pc < b.pc
}
