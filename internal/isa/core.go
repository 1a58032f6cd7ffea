package isa

import (
	"bytes"
	"fmt"
	"math"
)

// Bus is the memory system the core executes against. The MCU layer
// implements it with distinct SRAM/FRAM regions, per-access wait states,
// and energy accounting; tests use a flat RAM.
type Bus interface {
	Read8(addr uint16) byte
	Write8(addr uint16, v byte)
	Read16(addr uint16) uint16
	Write16(addr uint16, v uint16)
	// AccessCycles returns the extra wait-state cycles for one access to
	// addr (0 for zero-wait memory).
	AccessCycles(addr uint16, write bool) uint64
}

// FetchWindow describes a contiguous, side-effect-free memory region the
// superblock engine may fetch instructions from, and load and store data
// in, by direct slice indexing.
type FetchWindow struct {
	// Mem is the live backing store for addresses [Base, Base+len(Mem)):
	// writes through the bus to this region must be visible in it, and
	// writes to it must be what later bus reads return (i.e. it aliases
	// the implementation's storage, not a copy).
	Mem  []byte
	Base uint16
	// Wait, if non-nil, points at the live wait-state count for every
	// access to this region (nil means zero-wait). A pointer rather than a
	// value so frequency-dependent wait states stay correct without
	// re-probing the window.
	Wait *uint64
}

// WindowBus is an optional Bus extension granting the core direct memory
// windows. FetchWindow returns the window containing addr, or ok=false
// when addr has no window (MMIO, open bus) — RunBudget then falls back to
// Step for a fetch, and to the Bus for a data access.
//
// A window is both the fetch path and the data path: for every addr in
// [Base, Base+len(Mem)), Read8/Read16/Write8/Write16 of bytes inside the
// window must read and write Mem with no other effect, and *Wait (or 0
// for a nil Wait) must equal AccessCycles(addr, false) and
// AccessCycles(addr, true).
type WindowBus interface {
	FetchWindow(addr uint16) (w FetchWindow, ok bool)
}

// SP is the register index used as the stack pointer by PUSH/POP/CALL/RET.
const SP = 15

// Core is one EVM-16 hardware thread: the full volatile execution state
// plus cycle accounting. Everything in Core (and the SRAM behind Bus) is
// lost on a brown-out unless a transient runtime saves it.
type Core struct {
	R      [16]uint16 // general registers; R[15] is the stack pointer
	PC     uint16
	HI     uint16 // high word of the last MUL
	ZF, NF bool   // zero, negative
	CF     bool   // carry (no-borrow for SUB/CMP)
	GE     bool   // signed >= from the last CMP/SUB

	Halted bool
	Cycles uint64 // total cycles retired, including wait states

	Bus Bus

	// Sys, if non-nil, handles SYS traps. The handler may read and write
	// core and bus state (calling convention: arguments in R1/R2, result
	// in R1).
	Sys func(code uint16, c *Core)

	// Checkpoint, if non-nil, is invoked by the CHK instruction after the
	// PC has advanced past it — the hook Mementos-style runtimes use.
	Checkpoint func(c *Core)

	knownBus Bus       // Bus value winBus was resolved from
	winBus   WindowBus // non-nil when knownBus implements WindowBus

	// Cached fetch window: superblocks starting at win.Base <= PC with
	// PC+3 inside win.Mem are built and revalidated by direct slice
	// indexing. Re-probed whenever PC leaves the window.
	win   FetchWindow
	winOK bool

	// Cached data window: LD/ST/LDB/STB inside it (or inside win) read and
	// write Mem directly and pay *Wait. Re-probed whenever an access misses
	// both; the zero value (empty Mem) matches nothing.
	dwin FetchWindow

	// Superblock cache (see RunBudget): straight-line runs decoded into
	// one precompiled handler list, revalidated wholesale against live
	// memory before any effect is committed. Allocated lazily on the
	// first RunBudget call; plain Step never touches it.
	sbsets  [][sbWays]sblock
	sbHits  uint64 // block executions served by a revalidated cached block
	sbBuild uint64 // block (re)constructions

	// Last store site, recorded by execOne for the superblock runner's
	// self-modification check.
	storeAddr uint16
	storeLen  uint16
}

// Superblock cache geometry. Sets are indexed by (pc>>1) & sbMask —
// instructions are 2-byte aligned, so the shift keeps all index bits
// useful — and each set holds two ways so a pair of PCs that alias the
// same set (any 2 KiB multiple apart) can coexist instead of thrashing
// rebuilds. sbMaxInstrs is the fusion cap, the "cache-line
// boundary" of the block cache.
const (
	sbBits      = 10
	sbMask      = 1<<sbBits - 1
	sbWays      = 2
	sbMaxInstrs = 32
)

// sbEntry is one pre-decoded instruction of a superblock, with its base
// cycle cost and encoded length hoisted out of the dispatch loop.
type sbEntry struct {
	in  Instr
	cyc uint64
	ln  uint16
}

// sblock is a decoded straight-line run starting at start: the raw bytes
// it was decoded from (for wholesale revalidation) and the entry list. A
// zero rawLen marks an empty/unbuildable slot.
type sblock struct {
	start   uint16
	rawLen  uint16
	raw     []byte
	entries []sbEntry
}

// sbStop marks opcodes that terminate a superblock: control transfers
// and traps (the trap handlers may change mode, bus contents, or the
// core itself, so a block never runs past one).
var sbStop [opMax]bool

func init() {
	for _, op := range []Op{
		OpJMP, OpJZ, OpJNZ, OpJC, OpJNC, OpJN, OpJGE, OpJLT,
		OpCALL, OpRET, OpSYS, OpCHK, OpHALT,
	} {
		sbStop[op] = true
	}
}

// Reset returns the core to its power-on state (registers and flags
// cleared, PC at the reset vector) without touching memory.
func (c *Core) Reset(resetVector uint16) {
	c.R = [16]uint16{}
	c.PC = resetVector
	c.HI = 0
	c.ZF, c.NF, c.CF, c.GE = false, false, false, false
	c.Halted = false
}

// setZN updates the Z and N flags from a result.
func (c *Core) setZN(v uint16) {
	c.ZF = v == 0
	c.NF = v&0x8000 != 0
}

// resolveBus re-resolves the optional WindowBus after Bus changed and
// drops the cached windows. Superblocks survive a bus swap: each is
// revalidated against the (new) live bytes before use.
func (c *Core) resolveBus() {
	c.knownBus = c.Bus
	c.winBus, _ = c.Bus.(WindowBus)
	c.winOK = false
	c.dwin = FetchWindow{}
}

// probeWindow asks the WindowBus for a fetch window containing pc, and
// reports whether a usable one (pc+3 inside it) was cached.
func (c *Core) probeWindow(pc uint16) bool {
	w, ok := c.winBus.FetchWindow(pc)
	if !ok {
		c.winOK = false
		return false
	}
	c.win, c.winOK = w, true
	return w.holds(pc, 4)
}

// Execution-outcome bits returned by execOne.
const (
	execTrap  = 1 << iota // SYS/CHK: PC already committed, handler already ran
	execHalt              // HALT: core halted, caller commits the returned PC
	execBad               // undefined opcode: core halted, PC must not advance
	execStore             // instruction wrote memory (see storeAddr/storeLen)
)

// Step executes one instruction and is the reference interpreter: it
// fetches byte by byte through the Bus (bytes 2–3 only for a 4-byte
// opcode, so a peripheral next to code sees no spurious reads), decodes
// afresh and executes, with no cache of any kind. It returns the executed
// instruction and an error for invalid opcodes (which also halt the
// core). A halted core returns immediately.
func (c *Core) Step() (Instr, error) {
	if c.Halted {
		return Instr{}, nil
	}
	pc := c.PC
	var raw [4]byte
	raw[0] = c.Bus.Read8(pc)
	raw[1] = c.Bus.Read8(pc + 1)
	if Length(Op(raw[0])) == 4 {
		raw[2] = c.Bus.Read8(pc + 2)
		raw[3] = c.Bus.Read8(pc + 3)
	}
	wait := c.Bus.AccessCycles(pc, false)
	in, _, err := Decode(raw[:], pc)
	if err != nil {
		c.Halted = true
		return in, err
	}
	// Instruction fetch pays the wait states of its own memory region.
	// in.Op is a decoded (hence defined) opcode, so direct table indexing
	// is safe.
	c.Cycles += opCycles[in.Op] + wait
	next, kind := c.execOne(in, c.PC+opLen[in.Op])
	if kind&execBad != 0 {
		return in, fmt.Errorf("isa: unimplemented opcode %v", in.Op)
	}
	if kind&execTrap == 0 {
		c.PC = next
	}
	return in, nil
}

// execOne executes one decoded instruction whose base cycles (and fetch
// wait states) have already been charged, and returns the next PC plus
// outcome bits. It is the single source of instruction semantics, shared
// by Step and the superblock runner. The caller commits the returned PC
// unless execTrap (committed here, before the handler ran) or execBad
// (the PC must stay on the faulting instruction) is set.
func (c *Core) execOne(in Instr, next uint16) (uint16, int) {
	switch in.Op {
	case OpNOP:
	case OpHALT:
		c.Halted = true
		return next, execHalt
	case OpMOV:
		c.R[in.Dst] = c.R[in.Src]
	case OpMOVI:
		c.R[in.Dst] = in.Imm
	case OpLD:
		addr := c.R[in.Src] + in.Imm
		c.R[in.Dst] = c.Bus.Read16(addr)
		c.Cycles += c.Bus.AccessCycles(addr, false)
	case OpST:
		addr := c.R[in.Dst] + in.Imm
		c.Bus.Write16(addr, c.R[in.Src])
		c.Cycles += c.Bus.AccessCycles(addr, true)
		c.storeAddr, c.storeLen = addr, 2
		return next, execStore
	case OpLDB:
		addr := c.R[in.Src] + in.Imm
		c.R[in.Dst] = uint16(c.Bus.Read8(addr))
		c.Cycles += c.Bus.AccessCycles(addr, false)
	case OpSTB:
		addr := c.R[in.Dst] + in.Imm
		c.Bus.Write8(addr, byte(c.R[in.Src]))
		c.Cycles += c.Bus.AccessCycles(addr, true)
		c.storeAddr, c.storeLen = addr, 1
		return next, execStore
	case OpPUSH:
		c.R[SP] -= 2
		c.Bus.Write16(c.R[SP], c.R[in.Dst])
		c.Cycles += c.Bus.AccessCycles(c.R[SP], true)
		c.storeAddr, c.storeLen = c.R[SP], 2
		return next, execStore
	case OpPOP:
		c.R[in.Dst] = c.Bus.Read16(c.R[SP])
		c.Cycles += c.Bus.AccessCycles(c.R[SP], false)
		c.R[SP] += 2
	case OpADD:
		c.add(in.Dst, c.R[in.Src])
	case OpADDI:
		c.add(in.Dst, in.Imm)
	case OpSUB:
		c.R[in.Dst] = c.sub(c.R[in.Dst], c.R[in.Src])
	case OpSUBI:
		c.R[in.Dst] = c.sub(c.R[in.Dst], in.Imm)
	case OpAND:
		c.R[in.Dst] &= c.R[in.Src]
		c.setZN(c.R[in.Dst])
	case OpOR:
		c.R[in.Dst] |= c.R[in.Src]
		c.setZN(c.R[in.Dst])
	case OpXOR:
		c.R[in.Dst] ^= c.R[in.Src]
		c.setZN(c.R[in.Dst])
	case OpNOT:
		c.R[in.Dst] = ^c.R[in.Dst]
		c.setZN(c.R[in.Dst])
	case OpNEG:
		c.R[in.Dst] = -c.R[in.Dst]
		c.setZN(c.R[in.Dst])
	case OpSHL:
		c.shl(in.Dst, in.Src)
	case OpSHR:
		c.shr(in.Dst, in.Src)
	case OpSAR:
		c.sar(in.Dst, in.Src)
	case OpMUL:
		c.mul(in.Dst, c.R[in.Src])
	case OpQMUL:
		c.qmul(in.Dst, c.R[in.Src])
	case OpCMP:
		c.sub(c.R[in.Dst], c.R[in.Src])
	case OpCMPI:
		c.sub(c.R[in.Dst], in.Imm)
	case OpJMP:
		next = in.Imm
		c.Cycles++
	case OpJZ:
		if c.ZF {
			next = in.Imm
			c.Cycles++
		}
	case OpJNZ:
		if !c.ZF {
			next = in.Imm
			c.Cycles++
		}
	case OpJC:
		if c.CF {
			next = in.Imm
			c.Cycles++
		}
	case OpJNC:
		if !c.CF {
			next = in.Imm
			c.Cycles++
		}
	case OpJN:
		if c.NF {
			next = in.Imm
			c.Cycles++
		}
	case OpJGE:
		if c.GE {
			next = in.Imm
			c.Cycles++
		}
	case OpJLT:
		if !c.GE {
			next = in.Imm
			c.Cycles++
		}
	case OpCALL:
		c.R[SP] -= 2
		c.Bus.Write16(c.R[SP], next)
		c.Cycles += c.Bus.AccessCycles(c.R[SP], true)
		c.storeAddr, c.storeLen = c.R[SP], 2
		return in.Imm, execStore
	case OpRET:
		next = c.Bus.Read16(c.R[SP])
		c.Cycles += c.Bus.AccessCycles(c.R[SP], false)
		c.R[SP] += 2
	case OpSYS:
		c.PC = next // handler sees the post-trap PC
		if c.Sys != nil {
			c.Sys(in.Imm, c)
		}
		return next, execTrap
	case OpCHK:
		c.PC = next // checkpoint captures the resume point past the trap
		if c.Checkpoint != nil {
			c.Checkpoint(c)
		}
		return next, execTrap
	default:
		c.Halted = true
		return next, execBad
	}
	return next, 0
}

// RunBudget executes instructions while budget >= 1 cycles remain and the
// core is not halted, using superblock execution: straight-line runs are
// decoded once into a cached block and replayed with a single fetch-path
// entry per block instead of one per instruction. It returns the budget
// left, the cycles actually retired (spent), and any guest fault.
//
// Blocks are built only inside a WindowBus fetch window; an MMIO or
// open-bus fetch, a window tail and undecodable bytes go through Step.
// Inside a block each instruction takes one dispatch: register-only ops
// and LD/ST/LDB/STB whose bytes fall inside a window run inline (the data
// access reads or writes the window's Mem and pays its *Wait, per the
// WindowBus contract), and everything else — control transfers, traps,
// the stack ops, and data accesses to MMIO, open bus, a region edge or
// across 0xffff — goes through execOne and the Bus.
//
// Semantics are step-for-step identical to calling Step in a loop and
// subtracting each instruction's cycle delta from the budget (the
// differential fuzzer FuzzRunBudgetMatchesStep in internal/mcu pins
// this, on an mcu.Bus and on a FlatRAM):
//
//   - a block revalidates every constituent instruction's raw bytes
//     against live memory before committing any effect, so guest stores,
//     snapshot restores and SRAM scrambling need no invalidation protocol;
//   - a store into the not-yet-executed remainder of the running block
//     aborts the replay at the next instruction boundary and re-enters
//     through revalidation;
//   - SYS/CHK return immediately after their handler (the handler may
//     have changed device mode — the caller must recheck its own gates);
//   - a faulting instruction's cycles are charged to the core but not to
//     budget/spent, matching the historical stepwise accounting;
//   - the budget check happens after every instruction, in integers: for
//     an integer spent, budget−spent < 1 ⇔ spent ≥ ⌊budget⌋, so the stop
//     decision lands on exactly the same instruction as the stepwise loop.
//     The budget returned is budget−spent, one rounding of the same real
//     number the stepwise loop's exact per-instruction subtractions reach
//     (for budgets below 2⁵³, the premise of those subtractions).
func (c *Core) RunBudget(budget float64) (float64, uint64, error) {
	if !(budget >= 1) || c.Halted { // NaN included
		return budget, 0, nil
	}
	// Go leaves an out-of-range float→uint64 conversion to the
	// implementation, and no run retires 2⁶³ cycles, so larger budgets
	// (and +Inf) never stop on the budget.
	lim := uint64(math.MaxUint64)
	if budget < 1<<63 {
		lim = uint64(budget)
	}
	if c.Bus != c.knownBus {
		c.resolveBus()
	}
	if c.sbsets == nil {
		c.sbsets = make([][sbWays]sblock, 1<<sbBits)
	}
	var spent uint64
	for spent < lim && !c.Halted {
		blk := c.lookupBlock(c.PC)
		if blk == nil {
			// MMIO fetch, window tail, or undecodable bytes: the plain
			// step path handles them, and a trap still ends the call.
			before := c.Cycles
			in, err := c.Step()
			if err != nil {
				return budget - float64(spent), spent, err
			}
			spent += c.Cycles - before
			if in.Op == OpSYS || in.Op == OpCHK {
				break
			}
			continue
		}
		wait := c.win.wait()
		// A block that runs off its end continues right after its last
		// byte; every other exit sets pc itself.
		pc := blk.start + blk.rawLen
		entries := blk.entries
	replay:
		for i := range entries {
			e := &entries[i]
			in := &e.in
			d := e.cyc + wait
			// Each inline case is the statement execOne runs for the op
			// (same helpers, same order); the register indexes are masked
			// only so the compiler can drop the bounds checks — decoded
			// registers are 0–15 already.
			switch in.Op {
			case OpNOP:
			case OpMOV:
				c.R[in.Dst&15] = c.R[in.Src&15]
			case OpMOVI:
				c.R[in.Dst&15] = in.Imm
			case OpADD:
				c.add(in.Dst, c.R[in.Src&15])
			case OpADDI:
				c.add(in.Dst, in.Imm)
			case OpSUB:
				c.R[in.Dst&15] = c.sub(c.R[in.Dst&15], c.R[in.Src&15])
			case OpSUBI:
				c.R[in.Dst&15] = c.sub(c.R[in.Dst&15], in.Imm)
			case OpAND:
				c.R[in.Dst&15] &= c.R[in.Src&15]
				c.setZN(c.R[in.Dst&15])
			case OpOR:
				c.R[in.Dst&15] |= c.R[in.Src&15]
				c.setZN(c.R[in.Dst&15])
			case OpXOR:
				c.R[in.Dst&15] ^= c.R[in.Src&15]
				c.setZN(c.R[in.Dst&15])
			case OpNOT:
				c.R[in.Dst&15] = ^c.R[in.Dst&15]
				c.setZN(c.R[in.Dst&15])
			case OpNEG:
				c.R[in.Dst&15] = -c.R[in.Dst&15]
				c.setZN(c.R[in.Dst&15])
			case OpSHL:
				c.shl(in.Dst, in.Src)
			case OpSHR:
				c.shr(in.Dst, in.Src)
			case OpSAR:
				c.sar(in.Dst, in.Src)
			case OpMUL:
				c.mul(in.Dst, c.R[in.Src&15])
			case OpQMUL:
				c.qmul(in.Dst, c.R[in.Src&15])
			case OpCMP:
				c.sub(c.R[in.Dst&15], c.R[in.Src&15])
			case OpCMPI:
				c.sub(c.R[in.Dst&15], in.Imm)
			case OpLD:
				addr := c.R[in.Src&15] + in.Imm
				w := &c.dwin
				if !w.holds(addr, 2) {
					if w = c.dataMiss(addr, 2); w == nil {
						goto slow
					}
				}
				m := w.Mem[int(addr)-int(w.Base):]
				c.R[in.Dst&15] = uint16(m[0]) | uint16(m[1])<<8
				d += w.wait()
			case OpLDB:
				addr := c.R[in.Src&15] + in.Imm
				w := &c.dwin
				if !w.holds(addr, 1) {
					if w = c.dataMiss(addr, 1); w == nil {
						goto slow
					}
				}
				c.R[in.Dst&15] = uint16(w.Mem[int(addr)-int(w.Base)])
				d += w.wait()
			case OpST:
				addr := c.R[in.Dst&15] + in.Imm
				w := &c.dwin
				if !w.holds(addr, 2) {
					if w = c.dataMiss(addr, 2); w == nil {
						goto slow
					}
				}
				m := w.Mem[int(addr)-int(w.Base):]
				v := c.R[in.Src&15]
				m[0], m[1] = byte(v), byte(v>>8)
				d += w.wait()
				if storeHitsBlock(blk, in.Addr+e.ln, addr, 2) {
					c.Cycles += d
					spent += d
					pc = in.Addr + e.ln
					break replay
				}
			case OpSTB:
				addr := c.R[in.Dst&15] + in.Imm
				w := &c.dwin
				if !w.holds(addr, 1) {
					if w = c.dataMiss(addr, 1); w == nil {
						goto slow
					}
				}
				w.Mem[int(addr)-int(w.Base)] = byte(c.R[in.Src&15])
				d += w.wait()
				if storeHitsBlock(blk, in.Addr+e.ln, addr, 1) {
					c.Cycles += d
					spent += d
					pc = in.Addr + e.ln
					break replay
				}
			default:
				goto slow
			}
			c.Cycles += d
			spent += d
			if spent >= lim {
				pc = in.Addr + e.ln
				break
			}
			continue
		slow:
			// Control transfers, traps, stack ops and data accesses
			// without a window: execOne and the Bus, which may add wait
			// states (and a taken branch's cycle) to the base cost.
			before := c.Cycles
			c.Cycles += d
			next, kind := c.execOne(*in, in.Addr+e.ln)
			if kind&execBad != 0 {
				c.PC = in.Addr // stay on the faulting instruction, like Step
				return budget - float64(spent), spent, fmt.Errorf("isa: unimplemented opcode %v", in.Op)
			}
			spent += c.Cycles - before
			if kind&execTrap != 0 {
				return budget - float64(spent), spent, nil
			}
			// A taken control transfer is always a block's last entry.
			if next != in.Addr+e.ln || kind&execHalt != 0 || spent >= lim ||
				kind&execStore != 0 && storeHitsBlock(blk, next, c.storeAddr, c.storeLen) {
				pc = next
				break
			}
		}
		c.PC = pc
	}
	return budget - float64(spent), spent, nil
}

// dataMiss returns the window for an n-byte data access at addr that
// missed the data window: the running block's fetch window if it holds
// the access, else a freshly probed data window, or nil when the access
// has no window and must go through the Bus.
func (c *Core) dataMiss(addr uint16, n int) *FetchWindow {
	if c.winOK && c.win.holds(addr, n) {
		return &c.win
	}
	if c.winBus == nil {
		return nil
	}
	w, ok := c.winBus.FetchWindow(addr)
	if !ok {
		return nil
	}
	c.dwin = w
	if !w.holds(addr, n) {
		return nil
	}
	return &c.dwin
}

// holds reports whether all n bytes at addr lie inside the window.
func (w *FetchWindow) holds(addr uint16, n int) bool {
	i := int(addr) - int(w.Base)
	return i >= 0 && i+n <= len(w.Mem)
}

// wait returns the window's live wait-state count.
func (w *FetchWindow) wait() uint64 {
	if w.Wait == nil {
		return 0
	}
	return *w.Wait
}

// SuperblockStats reports superblock cache activity: hits are block
// executions served by a revalidated cached block, builds are block
// (re)constructions. Diagnostic only.
func (c *Core) SuperblockStats() (hits, builds uint64) { return c.sbHits, c.sbBuild }

// storeHitsBlock reports whether a store of n bytes at addr may overlap
// the not-yet-executed remainder [from, start+rawLen) of the running
// block. A store that wraps the address space is conservatively treated
// as overlapping.
func storeHitsBlock(blk *sblock, from uint16, addr uint16, n uint16) bool {
	a := int(addr)
	e := a + int(n)
	if e > 0x10000 {
		return true
	}
	return e > int(from) && a < int(blk.start)+int(blk.rawLen)
}

// lookupBlock returns a revalidated superblock starting at pc, building
// or rebuilding one as needed, or nil when pc has no usable fetch window
// or the bytes at pc do not decode (the caller falls back to Step).
func (c *Core) lookupBlock(pc uint16) *sblock {
	i := int(pc) - int(c.win.Base)
	if !c.winOK || i < 0 || i+3 >= len(c.win.Mem) {
		if c.winBus == nil || !c.probeWindow(pc) {
			return nil
		}
		i = int(pc) - int(c.win.Base)
	}
	set := &c.sbsets[(pc>>1)&sbMask]
	if set[0].start != pc || set[0].rawLen == 0 {
		if set[1].start == pc && set[1].rawLen != 0 {
			set[0], set[1] = set[1], set[0] // MRU to way 0
		} else {
			// Build into the LRU way, then promote. Freshly decoded from
			// live bytes, so no revalidation pass is needed this time.
			c.buildBlock(&set[1], pc, i)
			c.sbBuild++
			if set[1].rawLen == 0 {
				return nil
			}
			set[0], set[1] = set[1], set[0]
			return &set[0]
		}
	}
	blk := &set[0]
	if i+int(blk.rawLen) > len(c.win.Mem) || !bytes.Equal(blk.raw, c.win.Mem[i:i+int(blk.rawLen)]) {
		c.buildBlock(blk, pc, i)
		c.sbBuild++
		if blk.rawLen == 0 {
			return nil
		}
		return blk
	}
	c.sbHits++
	return blk
}

// buildBlock decodes a straight-line run from the cached window starting
// at pc (window offset i) into b, reusing b's backing storage. The block
// ends at a control transfer or trap (included as the final entry), at
// the fusion cap, at the window's fetch boundary, or at undecodable
// bytes (excluded — the Step fallback reports them).
func (c *Core) buildBlock(b *sblock, pc uint16, i int) {
	b.start = pc
	b.rawLen = 0
	b.raw = b.raw[:0]
	b.entries = b.entries[:0]
	mem := c.win.Mem
	addr := pc
	off := i
	for len(b.entries) < sbMaxInstrs && off+3 < len(mem) {
		in, n, err := Decode(mem[off:off+4], addr)
		if err != nil {
			break
		}
		b.entries = append(b.entries, sbEntry{in: in, cyc: opCycles[in.Op], ln: uint16(n)})
		b.raw = append(b.raw, mem[off:off+n]...)
		off += n
		addr += uint16(n)
		if sbStop[in.Op] {
			break
		}
	}
	b.rawLen = uint16(len(b.raw))
}

// add performs dst += v with flag updates.
func (c *Core) add(dst uint8, v uint16) {
	r := &c.R[dst&15]
	sum := uint32(*r) + uint32(v)
	*r = uint16(sum)
	c.CF = sum > 0xffff
	c.setZN(*r)
	// Signed comparison semantics are defined for SUB/CMP only, but keep
	// GE coherent for ADD as "result >= 0 signed".
	c.GE = int16(*r) >= 0
}

// sub computes a - b, sets all flags, and returns the result. CF follows
// the MSP430 convention: set when no borrow occurred (a >= b unsigned).
func (c *Core) sub(a, b uint16) uint16 {
	r := a - b
	c.CF = a >= b
	c.setZN(r)
	c.GE = int16(a) >= int16(b)
	return r
}

// shl, shr and sar shift dst by n (0–15) places, logically left, logically
// right and arithmetically right; a nonzero shift leaves the last bit
// shifted out in CF.
func (c *Core) shl(dst, n uint8) {
	r := &c.R[dst&15]
	if n > 0 {
		c.CF = *r&(1<<(16-uint(n))) != 0
	}
	*r <<= n
	c.setZN(*r)
}

func (c *Core) shr(dst, n uint8) {
	r := &c.R[dst&15]
	if n > 0 {
		c.CF = *r&(1<<(n-1)) != 0
	}
	*r >>= n
	c.setZN(*r)
}

func (c *Core) sar(dst, n uint8) {
	r := &c.R[dst&15]
	if n > 0 {
		c.CF = *r&(1<<(n-1)) != 0
	}
	*r = uint16(int16(*r) >> n)
	c.setZN(*r)
}

// mul sets dst to the low half of the signed product dst·v and HI to the
// high half.
func (c *Core) mul(dst uint8, v uint16) {
	r := &c.R[dst&15]
	prod := int32(int16(*r)) * int32(int16(v))
	*r = uint16(prod)
	c.HI = uint16(uint32(prod) >> 16)
	c.setZN(*r)
}

// qmul sets dst to the signed Q15 product (dst·v)>>15, saturated to the
// int16 range.
func (c *Core) qmul(dst uint8, v uint16) {
	r := &c.R[dst&15]
	q := (int32(int16(*r)) * int32(int16(v))) >> 15
	if q > 32767 {
		q = 32767
	} else if q < -32768 {
		q = -32768
	}
	*r = uint16(int16(q))
	c.setZN(*r)
}

// Run executes instructions until the core halts, maxSteps is reached, or
// an error occurs. It returns the number of instructions retired.
func (c *Core) Run(maxSteps int) (int, error) {
	for i := 0; i < maxSteps; i++ {
		if c.Halted {
			return i, nil
		}
		if _, err := c.Step(); err != nil {
			return i, err
		}
	}
	return maxSteps, nil
}

// FlatRAM is a simple zero-wait 64 KiB memory, primarily for tests and the
// standalone assembler tool.
type FlatRAM struct {
	Mem [65536]byte
}

// Read8 implements Bus.
func (m *FlatRAM) Read8(addr uint16) byte { return m.Mem[addr] }

// Write8 implements Bus.
func (m *FlatRAM) Write8(addr uint16, v byte) { m.Mem[addr] = v }

// Read16 implements Bus (little endian, unaligned allowed).
func (m *FlatRAM) Read16(addr uint16) uint16 {
	return uint16(m.Mem[addr]) | uint16(m.Mem[addr+1])<<8
}

// Write16 implements Bus.
func (m *FlatRAM) Write16(addr uint16, v uint16) {
	m.Mem[addr] = byte(v)
	m.Mem[addr+1] = byte(v >> 8)
}

// AccessCycles implements Bus (zero wait states).
func (m *FlatRAM) AccessCycles(uint16, bool) uint64 { return 0 }

// FetchWindow implements WindowBus: the whole address space, zero-wait,
// for fetches and data alike.
func (m *FlatRAM) FetchWindow(uint16) (FetchWindow, bool) {
	return FetchWindow{Mem: m.Mem[:], Base: 0}, true
}

var _ WindowBus = (*FlatRAM)(nil)
