package mcu

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// FuzzRunBudgetMatchesStep is the differential oracle for the interpreter's
// fast path: isa.Core.RunBudget must retire exactly the instructions, cycles
// and side effects of the plain reference loop in stepBudget. Each input
// builds one guest image (random bytes mixed with assembled fragments that
// modify their own running block, jump to window tails and into the
// MMIO/open-bus hole, trap, halt and hit undecodable bytes) and one budget
// sequence, then runs a RunBudget machine and a stepBudget machine side by
// side on an mcu.Bus (with a peripheral whose reads have side effects) and
// again on an isa.FlatRAM, comparing the complete machine state after every
// call.
func FuzzRunBudgetMatchesStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, budgets []byte) {
		img, entry, wait, sp := fuzzImage(prog)
		for _, flat := range []bool{false, true} {
			fast := newFuzzMachine(&img, entry, wait, sp, flat)
			ref := newFuzzMachine(&img, entry, wait, sp, flat)
			if len(budgets) > 64 {
				budgets = budgets[:64]
			}
			var rem float64
			for call, b := range budgets {
				budget := rem + float64(b)*3 + 0.25*float64(b%4)
				gotRem, gotSpent, gotErr := fast.core.RunBudget(budget)
				wantRem, wantSpent, wantErr := stepBudget(ref.core, budget)
				where := fmt.Sprintf("flat=%v call %d (budget %v, entry %#04x)", flat, call, budget, entry)
				if gotRem != wantRem || gotSpent != wantSpent {
					t.Fatalf("%s: RunBudget = (%v, %d), Step loop = (%v, %d)", where, gotRem, gotSpent, wantRem, wantSpent)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: RunBudget error %v, Step loop error %v", where, gotErr, wantErr)
				}
				fast.diff(t, where, ref)
				// Carry the remainder the way mcu.Device.executeFor does.
				rem = max(gotRem, 0)
			}
		}
	})
}

// TestRunBudgetBudgetEdges pins RunBudget's integer stop rule (stop once
// spent ≥ ⌊budget⌋) and its returned remainder to the Step loop's float
// arithmetic: just under one cycle, exactly one, fractions above a whole
// count (4.5 and 6.5 are half a cycle past the second instruction on
// FlatRAM and on the mcu.Bus, where ⌈budget⌉ would run one more), 2⁵³,
// +Inf and NaN. The program halts, so the unbounded budgets end too; it
// loads and stores in SRAM and FRAM through the data window.
func TestRunBudgetBudgetEdges(t *testing.T) {
	p, err := isa.Assemble(`
.org 0x4000
	MOVI r1, #30
	MOVI r2, #0x0200
loop:	LD   r3, [r2+0]
	ADDI r3, #3
	ST   [r2+0], r3
	LDB  r4, [r1+0x5000]
	STB  [r1+0x5100], r4
	SUBI r1, #1
	JNZ  loop
	HALT`)
	if err != nil {
		t.Fatal(err)
	}
	var img [1 << 16]byte
	for _, seg := range p.Segments {
		copy(img[seg.Addr:], seg.Data)
	}
	for _, budget := range []float64{0.999, 1, 1.5, 4.5, 6.5, 40, 40.5, 1 << 53, math.Inf(1), math.NaN()} {
		for _, flat := range []bool{false, true} {
			fast := newFuzzMachine(&img, p.Entry, 1, 0x0f00, flat)
			ref := newFuzzMachine(&img, p.Entry, 1, 0x0f00, flat)
			gotRem, gotSpent, gotErr := fast.core.RunBudget(budget)
			wantRem, wantSpent, wantErr := stepBudget(ref.core, budget)
			where := fmt.Sprintf("budget %v flat=%v", budget, flat)
			if math.Float64bits(gotRem) != math.Float64bits(wantRem) || gotSpent != wantSpent {
				t.Errorf("%s: RunBudget = (%v, %d), Step loop = (%v, %d)", where, gotRem, gotSpent, wantRem, wantSpent)
			}
			if gotErr != nil || wantErr != nil {
				t.Errorf("%s: errors %v, %v", where, gotErr, wantErr)
			}
			fast.diff(t, where, ref)
			if wantHalt := budget >= 1<<53; ref.core.Halted != wantHalt {
				t.Errorf("%s: halted = %v, want %v", where, ref.core.Halted, wantHalt)
			}
		}
	}
}

// TestRunBudgetReturnsAfterTrapAtFRAMTail is the mcu.Bus case of RunBudget's
// trap contract on the Step fallback: a SYS or CHK in the last bytes of
// FRAM (past the last superblock-buildable address) ends the call right
// after its handler, having paid the trap's cycles plus one FRAM fetch.
func TestRunBudgetReturnsAfterTrapAtFRAMTail(t *testing.T) {
	for _, tt := range []struct {
		name   string
		trap   isa.Instr
		cycles uint64
		next   uint16 // PC past the trap, wrapped into SRAM
	}{
		{"SYS", isa.Instr{Op: isa.OpSYS, Imm: 7}, 2 + 1, 0x0002},
		{"CHK", isa.Instr{Op: isa.OpCHK}, 1 + 1, 0x0000},
	} {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBus()
			b.FRAMWait = 1
			putInstr(b, 0xfffe, tt.trap)
			putInstr(b, tt.next, isa.Instr{Op: isa.OpJMP, Imm: 0xfffe})
			traps := 0
			c := &isa.Core{Bus: b}
			c.Sys = func(uint16, *isa.Core) { traps++ }
			c.Checkpoint = func(*isa.Core) { traps++ }
			c.Reset(0xfffe)
			rem, spent, err := c.RunBudget(1000)
			if err != nil {
				t.Fatal(err)
			}
			if traps != 1 || spent != tt.cycles || rem != 1000-float64(tt.cycles) || c.PC != tt.next {
				t.Errorf("traps=%d spent=%d rem=%v PC=%#04x, want 1, %d, %v, %#04x",
					traps, spent, rem, c.PC, tt.cycles, 1000-float64(tt.cycles), tt.next)
			}
		})
	}
}

// putInstr encodes in at addr, wrapping past 0xffff like the core does.
func putInstr(b *Bus, addr uint16, in isa.Instr) {
	var buf [4]byte
	for i := range in.Encode(buf[:]) {
		b.Write8(addr+uint16(i), buf[i])
	}
}

// stepBudget is the reference for RunBudget: Step in a loop, charging each
// instruction's cycle delta to the budget, stopping once less than one
// cycle is left, right after a SYS or CHK (whose handler may have changed
// the caller's mode), or on a fault, whose cycles the core keeps but the
// budget does not pay.
func stepBudget(c *isa.Core, budget float64) (float64, uint64, error) {
	var spent uint64
	for budget >= 1 && !c.Halted {
		before := c.Cycles
		in, err := c.Step()
		if err != nil {
			return budget, spent, err
		}
		d := c.Cycles - before
		budget -= float64(d)
		spent += d
		if in.Op == isa.OpSYS || in.Op == isa.OpCHK {
			break
		}
	}
	return budget, spent, nil
}

// recMMIO is a peripheral whose reads have side effects: a read returns
// the register and then bumps it, so a spurious, missing or reordered read
// (an instruction fetch included) changes what every later access sees.
// The log keeps every access in order.
type recMMIO struct {
	regs [DefaultMMIOLen]byte
	log  []mmioAccess
}

type mmioAccess struct {
	write bool
	off   uint16
	v     byte
}

func (m *recMMIO) ReadReg(off uint16) byte {
	v := m.regs[off]
	m.regs[off] = v + 0x25
	m.log = append(m.log, mmioAccess{off: off, v: v})
	return v
}

func (m *recMMIO) WriteReg(off uint16, v byte) {
	m.regs[off] = v
	m.log = append(m.log, mmioAccess{write: true, off: off, v: v})
}

// fuzzMachine is one core plus its memory and trap log. Exactly one of
// bus and flat is set.
type fuzzMachine struct {
	core   *isa.Core
	bus    *Bus
	mmio   *recMMIO
	flat   *isa.FlatRAM
	events []string
}

func newFuzzMachine(img *[1 << 16]byte, entry uint16, wait uint64, sp uint16, flat bool) *fuzzMachine {
	m := &fuzzMachine{}
	if flat {
		m.flat = &isa.FlatRAM{Mem: *img}
		m.core = &isa.Core{Bus: m.flat}
	} else {
		m.bus = NewBus()
		copy(m.bus.SRAM, img[m.bus.SRAMBase:])
		copy(m.bus.FRAM, img[m.bus.FRAMBase:])
		m.mmio = &recMMIO{}
		copy(m.mmio.regs[:], img[DefaultMMIOBase:])
		m.bus.MMIOBase, m.bus.MMIOLen, m.bus.Periph = DefaultMMIOBase, DefaultMMIOLen, m.mmio
		m.bus.FRAMWait = wait
		m.core = &isa.Core{Bus: m.bus}
	}
	m.core.Reset(entry)
	for i := range m.core.R {
		m.core.R[i] = fuzzSites[i%len(fuzzSites)] + uint16(2*i)
	}
	m.core.R[isa.SP] = sp
	m.core.Sys = m.sys
	m.core.Checkpoint = m.chk
	return m
}

// sys is the SYS handler. The low three bits of the code pick an action a
// real handler (or the device's DFS and brown-out paths) may take between
// two instructions.
func (m *fuzzMachine) sys(code uint16, c *isa.Core) {
	m.events = append(m.events, fmt.Sprintf("sys %#x pc=%#04x cycles=%d", code, c.PC, c.Cycles))
	switch code % 8 {
	case 1: // write code: R1 as a word at R2
		c.Bus.Write16(c.R[2], c.R[1])
	case 2: // frequency switch: new FRAM wait states
		if m.bus != nil {
			m.bus.FRAMWait = uint64(code>>3) % 4
		}
	case 3: // volatile memory decays
		if m.bus != nil {
			m.bus.ScrambleSRAM(uint32(c.R[1]))
		} else {
			sram := Bus{SRAM: m.flat.Mem[:DefaultSRAMSize]}
			sram.ScrambleSRAM(uint32(c.R[1]))
		}
	case 4: // redirect
		c.PC = c.R[2]
	case 5:
		c.Halted = true
	case 6: // the handler observes the cycle count
		c.R[1] = uint16(c.Cycles)
	case 7: // plant a CHK at R2
		c.Bus.Write16(c.R[2], uint16(isa.OpCHK))
	}
}

// chk is the CHK hook; it also stores into memory, as a runtime's
// checkpoint bookkeeping would.
func (m *fuzzMachine) chk(c *isa.Core) {
	m.events = append(m.events, fmt.Sprintf("chk pc=%#04x cycles=%d", c.PC, c.Cycles))
	c.Bus.Write16(0x0010, uint16(len(m.events)))
}

// coreState is the architectural part of isa.Core.
type coreState struct {
	R              [16]uint16
	PC, HI         uint16
	ZF, NF, CF, GE bool
	Halted         bool
	Cycles         uint64
}

func stateOf(c *isa.Core) coreState {
	return coreState{c.R, c.PC, c.HI, c.ZF, c.NF, c.CF, c.GE, c.Halted, c.Cycles}
}

// diff fails t if m and ref differ in core state, memory, peripheral
// state and access log, or trap log.
func (m *fuzzMachine) diff(t *testing.T, where string, ref *fuzzMachine) {
	t.Helper()
	if got, want := stateOf(m.core), stateOf(ref.core); got != want {
		t.Fatalf("%s: core state\n RunBudget %+v\n Step loop %+v", where, got, want)
	}
	if !reflect.DeepEqual(m.events, ref.events) {
		t.Fatalf("%s: trap log\n RunBudget %q\n Step loop %q", where, m.events, ref.events)
	}
	if m.flat != nil {
		if m.flat.Mem != ref.flat.Mem {
			t.Fatalf("%s: flat memory differs at %#04x", where, firstDiff(m.flat.Mem[:], ref.flat.Mem[:]))
		}
		return
	}
	if !bytes.Equal(m.bus.SRAM, ref.bus.SRAM) {
		t.Fatalf("%s: SRAM differs at offset %#04x", where, firstDiff(m.bus.SRAM, ref.bus.SRAM))
	}
	if !bytes.Equal(m.bus.FRAM, ref.bus.FRAM) {
		t.Fatalf("%s: FRAM differs at offset %#04x", where, firstDiff(m.bus.FRAM, ref.bus.FRAM))
	}
	if m.bus.FRAMWait != ref.bus.FRAMWait {
		t.Fatalf("%s: FRAMWait %d, Step loop %d", where, m.bus.FRAMWait, ref.bus.FRAMWait)
	}
	if m.mmio.regs != ref.mmio.regs || !reflect.DeepEqual(m.mmio.log, ref.mmio.log) {
		t.Fatalf("%s: MMIO\n RunBudget %v\n Step loop %v", where, m.mmio.log, ref.mmio.log)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// fuzzSites are the addresses fragments and jumps aim at, chosen for the
// default mcu.Bus map: FRAM start, two addresses sharing its superblock
// set, the FRAM (and flat RAM) tail, SRAM start and tail, the MMIO window
// and its tail, and open bus just below MMIO and FRAM. A site plus an
// offset of up to 31 bytes reaches every last byte of a region.
var fuzzSites = []uint16{
	0x4000, 0x4800, 0x6000, 0xffe0, 0x0000, 0x0fe0,
	0x2000, 0x20e0, 0x1fe0, 0x3fe0, 0x0800,
}

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) u8() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *fuzzReader) u16() uint16 { return uint16(r.u8()) | uint16(r.u8())<<8 }

// addr picks a site and an offset of 0–31 bytes into it.
func (r *fuzzReader) addr() uint16 {
	site := fuzzSites[int(r.u8())%len(fuzzSites)]
	return site + uint16(r.u8()%32)
}

// fuzzImage decodes a fuzz input into a 64 KiB image, the entry point,
// the initial FRAM wait states and the stack pointer. The input is a
// header (entry address, wait, stack choice) followed by fragments, each
// a kind byte, a target address and kind-specific parameters; later
// fragments overwrite earlier ones.
func fuzzImage(prog []byte) (img [1 << 16]byte, entry uint16, wait uint64, sp uint16) {
	r := &fuzzReader{prog}
	entry = r.addr()
	wait = uint64(r.u8() % 4)
	sp = [...]uint16{0x0f00, 0xfff0, 0x2010, 0x0002}[r.u8()%4]
	for len(r.b) > 0 {
		kind, at, p := r.u8(), r.addr(), r.u8()
		var code []byte
		switch kind % 8 {
		case 0: // raw bytes, mostly undecodable
			for n := 1 + int(p%32); n > 0; n-- {
				code = append(code, r.u8())
			}
		case 1: // encoded instructions with random operands; opcodes past
			// the ISA's last are undecodable
			for n := 1 + int(p%8); n > 0; n-- {
				op := r.u8() % 40
				code = append(code, op, r.u8(), r.u8(), r.u8())
				code = code[:len(code)-4+isa.Length(isa.Op(op))]
			}
		case 2: // a store into the not-yet-executed rest of its own block
			st := "ST"
			if p&0x20 != 0 {
				st = "STB"
			}
			code = fuzzAsm(at, fmt.Sprintf(`
top:	MOVI r5, #top+%d
	MOVI r6, #%d
	%s   [r5+0], r6
	ADDI r1, #1
	ADDI r2, #1
	ADDI r3, #1
	ADDI r4, #1
	JMP  top`, p%32, r.u16(), st))
		case 3: // a loop with loads and stores through a random register
			code = fuzzAsm(at, fmt.Sprintf(`
	MOVI r3, #%d
loop:	ADDI r4, #%d
	ST   [r%d+%d], r4
	LD   r8, [r%d+%d]
	SUBI r3, #1
	JNZ  loop
	JMP  %d`, 1+p%16, r.u16(), r.u8()%16, r.u8()%64, r.u8()%16, r.u8()%64, r.addr()))
		case 4: // traps and HALT
			code = fuzzAsm(at, fmt.Sprintf(`
	%s
	JMP  %d`, [...]string{"SYS #" + fmt.Sprint(r.u16()), "CHK", "HALT", "CHK\n\tSYS #1"}[p%4], r.addr()))
		case 5: // control transfers
			code = fuzzAsm(at, fmt.Sprintf("\t%s", [...]string{"JMP", "CALL", "JZ", "JNC"}[p%4]+fmt.Sprintf(" %d", r.addr())))
		case 6: // MMIO loads and stores
			code = fuzzAsm(at, fmt.Sprintf(`
	MOVI r9, #%d
	LDB  r10, [r9+0]
	STB  [r9+1], r10
	LD   r11, [r9+2]
	ST   [r9+3], r11
	JMP  %d`, DefaultMMIOBase+uint16(p), r.addr()))
		case 7: // stack traffic
			code = fuzzAsm(at, fmt.Sprintf(`
	PUSH r%d
	CALL sub
	JMP  %d
sub:	POP  r2
	PUSH r2
	RET`, p%16, r.addr()))
		}
		for i, b := range code {
			img[at+uint16(i)] = b
		}
	}
	return img, entry, wait, sp
}

// fuzzAsm assembles a fragment at org and returns its bytes, or nil when
// the assembler rejects it (a fragment that would run past 0xffff).
func fuzzAsm(org uint16, src string) []byte {
	p, err := isa.Assemble(fmt.Sprintf(".org %d\n%s", org, src))
	if err != nil {
		return nil
	}
	var out []byte
	for _, seg := range p.Segments {
		out = append(out, seg.Data...)
	}
	return out
}
