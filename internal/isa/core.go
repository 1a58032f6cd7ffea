package isa

import (
	"bytes"
	"fmt"
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
// superblock engine may fetch instructions from by direct slice indexing.
type FetchWindow struct {
	// Mem is the live backing store for addresses [Base, Base+len(Mem)):
	// writes through the bus to this region must be visible in it (i.e.
	// it aliases the implementation's storage, not a copy).
	Mem  []byte
	Base uint16
	// Wait, if non-nil, points at the live wait-state count for fetches
	// from this region (nil means zero-wait). A pointer rather than a
	// value so frequency-dependent wait states stay correct without
	// re-probing the window.
	Wait *uint64
}

// WindowBus is an optional Bus extension granting the core direct fetch
// windows. FetchWindow returns the window containing addr, or ok=false
// when addr has no window (MMIO, open bus) — RunBudget then falls back to
// Step, which fetches through Read8.
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
// cycle cost and encoded length hoisted out of the dispatch loop. fast
// marks register-only ops (sbFast) whose cycle cost and fall-through
// successor are fully known at decode time, letting the dispatch loop
// skip the cycle-delta and exec-kind bookkeeping.
type sbEntry struct {
	in   Instr
	cyc  uint64
	ln   uint16
	fast bool
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

// sbFast marks register-only instructions: no bus access (so execOne
// adds exactly the entry's base cycle cost and never sets a wait state),
// no stores, no control transfer — execOne always returns the
// fall-through PC and kind 0. The dispatch loop exploits this to charge
// budget from the pre-decoded cost without the before/after Cycles diff
// or any exec-kind tests. Keep this list in sync with execOne: an op
// belongs here only if its case touches nothing but registers and flags.
var sbFast [opMax]bool

func init() {
	for _, op := range []Op{
		OpJMP, OpJZ, OpJNZ, OpJC, OpJNC, OpJN, OpJGE, OpJLT,
		OpCALL, OpRET, OpSYS, OpCHK, OpHALT,
	} {
		sbStop[op] = true
	}
	for _, op := range []Op{
		OpNOP, OpMOV, OpMOVI, OpADD, OpADDI, OpSUB, OpSUBI,
		OpAND, OpOR, OpXOR, OpNOT, OpNEG, OpSHL, OpSHR, OpSAR,
		OpMUL, OpQMUL, OpCMP, OpCMPI,
	} {
		sbFast[op] = true
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
// drops the cached window. Superblocks survive a bus swap: each is
// revalidated against the (new) live bytes before use.
func (c *Core) resolveBus() {
	c.knownBus = c.Bus
	c.winBus, _ = c.Bus.(WindowBus)
	c.winOK = false
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
	i := int(pc) - int(w.Base)
	return i >= 0 && i+3 < len(w.Mem)
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
		n := uint(in.Src)
		v := c.R[in.Dst]
		if n > 0 {
			c.CF = v&(1<<(16-n)) != 0
		}
		c.R[in.Dst] = v << n
		c.setZN(c.R[in.Dst])
	case OpSHR:
		n := uint(in.Src)
		v := c.R[in.Dst]
		if n > 0 {
			c.CF = v&(1<<(n-1)) != 0
		}
		c.R[in.Dst] = v >> n
		c.setZN(c.R[in.Dst])
	case OpSAR:
		n := uint(in.Src)
		v := int16(c.R[in.Dst])
		if n > 0 {
			c.CF = uint16(v)&(1<<(n-1)) != 0
		}
		c.R[in.Dst] = uint16(v >> n)
		c.setZN(c.R[in.Dst])
	case OpMUL:
		prod := int32(int16(c.R[in.Dst])) * int32(int16(c.R[in.Src]))
		c.R[in.Dst] = uint16(prod)
		c.HI = uint16(uint32(prod) >> 16)
		c.setZN(c.R[in.Dst])
	case OpQMUL:
		prod := int32(int16(c.R[in.Dst])) * int32(int16(c.R[in.Src]))
		q := prod >> 15
		if q > 32767 {
			q = 32767
		} else if q < -32768 {
			q = -32768
		}
		c.R[in.Dst] = uint16(int16(q))
		c.setZN(c.R[in.Dst])
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
//   - the budget check happens after every instruction, so the stop
//     decision lands on exactly the same instruction as the stepwise
//     loop (per-instruction deltas are small integers, so the float
//     subtractions are exact).
func (c *Core) RunBudget(budget float64) (float64, uint64, error) {
	if c.Bus != c.knownBus {
		c.resolveBus()
	}
	if c.sbsets == nil {
		c.sbsets = make([][sbWays]sblock, 1<<sbBits)
	}
	var spent uint64
	for budget >= 1 && !c.Halted {
		blk := c.lookupBlock(c.PC)
		if blk == nil {
			// MMIO fetch, window tail, or undecodable bytes: the plain
			// step path handles them, and a trap still ends the call.
			before := c.Cycles
			in, err := c.Step()
			if err != nil {
				return budget, spent, err
			}
			d := c.Cycles - before
			budget -= float64(d)
			spent += d
			if in.Op == OpSYS || in.Op == OpCHK {
				return budget, spent, nil
			}
			continue
		}
		var wait uint64
		if c.win.Wait != nil {
			wait = *c.win.Wait
		}
		pc := blk.start
		for i := range blk.entries {
			e := &blk.entries[i]
			if e.fast {
				// Register-only op: execOne adds no cycles beyond the
				// pre-decoded cost, never stores, never redirects the PC
				// (sbFast's contract), so the budget charge is known up
				// front and the exec-kind tests below cannot fire. The
				// hottest ALU ops are dispatched right here to skip the
				// execOne call; each case is the same statement as the
				// corresponding execOne case (same helpers, same order),
				// with execOne itself as the fallback for the rest.
				d := e.cyc + wait
				c.Cycles += d
				in := &e.in
				switch in.Op {
				case OpMOV:
					c.R[in.Dst] = c.R[in.Src]
				case OpMOVI:
					c.R[in.Dst] = in.Imm
				case OpADD:
					c.add(in.Dst, c.R[in.Src])
				case OpADDI:
					c.add(in.Dst, in.Imm)
				case OpSUB:
					c.R[in.Dst] = c.sub(c.R[in.Dst], c.R[in.Src])
				case OpSUBI:
					c.R[in.Dst] = c.sub(c.R[in.Dst], in.Imm)
				case OpCMP:
					c.sub(c.R[in.Dst], c.R[in.Src])
				case OpCMPI:
					c.sub(c.R[in.Dst], in.Imm)
				default:
					c.execOne(e.in, 0)
				}
				pc += e.ln
				budget -= float64(d)
				spent += d
				if budget < 1 {
					break
				}
				continue
			}
			before := c.Cycles
			c.Cycles += e.cyc + wait
			pcNext, kind := c.execOne(e.in, pc+e.ln)
			if kind&execBad != 0 {
				c.PC = pc // stay on the faulting instruction, like Step
				return budget, spent, fmt.Errorf("isa: unimplemented opcode %v", e.in.Op)
			}
			d := c.Cycles - before
			budget -= float64(d)
			spent += d
			if kind&execTrap != 0 {
				return budget, spent, nil
			}
			pc = pcNext
			if kind&execHalt != 0 {
				break
			}
			if kind&execStore != 0 && storeHitsBlock(blk, pcNext, c.storeAddr, c.storeLen) {
				break
			}
			if budget < 1 {
				break
			}
		}
		c.PC = pc
	}
	return budget, spent, nil
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
		b.entries = append(b.entries, sbEntry{in: in, cyc: opCycles[in.Op], ln: uint16(n), fast: sbFast[in.Op]})
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
	a := c.R[dst]
	sum := uint32(a) + uint32(v)
	c.R[dst] = uint16(sum)
	c.CF = sum > 0xffff
	c.setZN(c.R[dst])
	// Signed comparison semantics are defined for SUB/CMP only, but keep
	// GE coherent for ADD as "result >= 0 signed".
	c.GE = int16(c.R[dst]) >= 0
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

// FetchWindow implements WindowBus: the whole address space, zero-wait.
func (m *FlatRAM) FetchWindow(uint16) (FetchWindow, bool) {
	return FetchWindow{Mem: m.Mem[:], Base: 0}, true
}

var _ WindowBus = (*FlatRAM)(nil)
