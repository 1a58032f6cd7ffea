package isa

import (
	"testing"
	"testing/quick"
)

// runAsm assembles src, loads it into a FlatRAM, and returns a ready core
// with the stack at 0xFF00.
func runAsm(t *testing.T, src string) *Core {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	c := &Core{Bus: ram}
	c.Reset(p.Entry)
	c.R[SP] = 0xff00
	return c
}

// mustRun steps the core to completion.
func mustRun(t *testing.T, c *Core, maxSteps int) {
	t.Helper()
	if _, err := c.Run(maxSteps); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !c.Halted {
		t.Fatalf("program did not halt in %d steps (PC=0x%04x)", maxSteps, c.PC)
	}
}

func TestMoviAndArithmetic(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #10
    MOVI r2, #32
    ADD  r1, r2     ; r1 = 42
    SUBI r2, #2     ; r2 = 30
    HALT
`)
	mustRun(t, c, 100)
	if c.R[1] != 42 || c.R[2] != 30 {
		t.Errorf("r1=%d r2=%d, want 42, 30", c.R[1], c.R[2])
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 = 5050.
	c := runAsm(t, `
start:
    MOVI r1, #100
    MOVI r2, #0
loop:
    ADD  r2, r1
    SUBI r1, #1
    JNZ  loop
    HALT
`)
	mustRun(t, c, 1000)
	if c.R[2] != 5050 {
		t.Errorf("sum = %d, want 5050", c.R[2])
	}
}

func TestLoadStore(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #0x1234
    MOVI r2, #0x2000
    ST   [r2+4], r1
    LD   r3, [r2+4]
    STB  [r2+10], r1   ; low byte 0x34
    LDB  r4, [r2+10]
    HALT
`)
	mustRun(t, c, 100)
	if c.R[3] != 0x1234 {
		t.Errorf("word round-trip = 0x%04x, want 0x1234", c.R[3])
	}
	if c.R[4] != 0x34 {
		t.Errorf("byte round-trip = 0x%02x, want 0x34", c.R[4])
	}
}

func TestPushPopCallRet(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #7
    PUSH r1
    MOVI r1, #0
    CALL double     ; r2 = 2*r3
    POP  r4
    HALT
double:
    MOVI r3, #21
    MOV  r2, r3
    ADD  r2, r3
    RET
`)
	mustRun(t, c, 100)
	if c.R[2] != 42 {
		t.Errorf("call result = %d, want 42", c.R[2])
	}
	if c.R[4] != 7 {
		t.Errorf("stack round-trip = %d, want 7", c.R[4])
	}
	if c.R[SP] != 0xff00 {
		t.Errorf("SP not balanced: 0x%04x", c.R[SP])
	}
}

func TestFlagsAndConditionalJumps(t *testing.T) {
	// Signed comparison: -5 < 3 must take JLT.
	c := runAsm(t, `
start:
    MOVI r1, #-5
    CMPI r1, #3
    JLT  less
    MOVI r2, #0
    HALT
less:
    MOVI r2, #1
    HALT
`)
	mustRun(t, c, 100)
	if c.R[2] != 1 {
		t.Error("JLT should have been taken for -5 < 3")
	}
	// Unsigned view: 0xfffb >= 3, so JC (no borrow) is taken.
	c2 := runAsm(t, `
start:
    MOVI r1, #-5
    CMPI r1, #3
    JC   nb
    MOVI r2, #0
    HALT
nb:
    MOVI r2, #1
    HALT
`)
	mustRun(t, c2, 100)
	if c2.R[2] != 1 {
		t.Error("JC should reflect unsigned no-borrow")
	}
}

func TestLogicalOps(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #0x0f0f
    MOVI r2, #0x00ff
    MOV  r3, r1
    AND  r3, r2      ; 0x000f
    MOV  r4, r1
    OR   r4, r2      ; 0x0fff
    MOV  r5, r1
    XOR  r5, r2      ; 0x0ff0
    MOV  r6, r1
    NOT  r6          ; 0xf0f0
    MOVI r7, #5
    NEG  r7          ; -5
    HALT
`)
	mustRun(t, c, 100)
	want := map[int]uint16{3: 0x000f, 4: 0x0fff, 5: 0x0ff0, 6: 0xf0f0, 7: 0xfffb}
	for reg, w := range want {
		if c.R[reg] != w {
			t.Errorf("r%d = 0x%04x, want 0x%04x", reg, c.R[reg], w)
		}
	}
}

func TestShifts(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #1
    SHL  r1, #4      ; 16
    MOVI r2, #0x8000
    SHR  r2, #15     ; 1
    MOVI r3, #-16
    SAR  r3, #2      ; -4
    HALT
`)
	mustRun(t, c, 100)
	if c.R[1] != 16 || c.R[2] != 1 || int16(c.R[3]) != -4 {
		t.Errorf("shifts: r1=%d r2=%d r3=%d", c.R[1], c.R[2], int16(c.R[3]))
	}
}

func TestMulAndHI(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #300
    MOVI r2, #-200
    MUL  r1, r2      ; -60000 = 0xffff15a0
    HALT
`)
	mustRun(t, c, 100)
	prod := int32(uint32(c.HI)<<16 | uint32(c.R[1]))
	if prod != -60000 {
		t.Errorf("MUL product = %d, want -60000", prod)
	}
}

func TestQMulQ15(t *testing.T) {
	// Q15: 0.5 * 0.5 = 0.25 → 0x2000.
	c := runAsm(t, `
start:
    MOVI r1, #0x4000
    MOVI r2, #0x4000
    QMUL r1, r2
    MOVI r3, #-32768
    MOVI r4, #-32768
    QMUL r3, r4      ; (-1)*(-1) saturates to 0x7fff
    HALT
`)
	mustRun(t, c, 100)
	if c.R[1] != 0x2000 {
		t.Errorf("QMUL 0.5*0.5 = 0x%04x, want 0x2000", c.R[1])
	}
	if c.R[3] != 0x7fff {
		t.Errorf("QMUL saturation = 0x%04x, want 0x7fff", c.R[3])
	}
}

func TestQMulMatchesReference(t *testing.T) {
	ram := &FlatRAM{}
	// QMUL r1, r2; HALT
	prog := []Instr{
		{Op: OpQMUL, Dst: 1, Src: 2},
		{Op: OpHALT},
	}
	addr := uint16(0)
	for _, in := range prog {
		var buf [4]byte
		n := in.Encode(buf[:])
		for i := 0; i < n; i++ {
			ram.Mem[addr+uint16(i)] = buf[i]
		}
		addr += uint16(n)
	}
	f := func(a, b int16) bool {
		c := &Core{Bus: ram}
		c.Reset(0)
		c.R[1] = uint16(a)
		c.R[2] = uint16(b)
		if _, err := c.Run(10); err != nil {
			return false
		}
		want := (int32(a) * int32(b)) >> 15
		if want > 32767 {
			want = 32767
		}
		if want < -32768 {
			want = -32768
		}
		return int16(c.R[1]) == int16(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSysTrap(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #5
    SYS  #2          ; host doubles r1
    HALT
`)
	calls := 0
	c.Sys = func(code uint16, core *Core) {
		calls++
		if code != 2 {
			t.Errorf("sys code = %d, want 2", code)
		}
		core.R[1] *= 2
	}
	mustRun(t, c, 100)
	if calls != 1 || c.R[1] != 10 {
		t.Errorf("sys calls=%d r1=%d, want 1, 10", calls, c.R[1])
	}
}

func TestChkTrapAdvancesPC(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #1
    CHK
    MOVI r2, #2
    HALT
`)
	var pcAtChk uint16
	c.Checkpoint = func(core *Core) { pcAtChk = core.PC }
	mustRun(t, c, 100)
	// The hook must see the PC already pointing past CHK, so a restored
	// snapshot resumes after the checkpoint, not at it.
	if pcAtChk == 0 {
		t.Fatal("checkpoint hook never ran")
	}
	if c.R[2] != 2 {
		t.Error("execution after CHK did not continue")
	}
	// CHK without a hook is a NOP.
	c2 := runAsm(t, "start:\n CHK\n HALT\n")
	mustRun(t, c2, 10)
}

// TestRunBudgetReturnsAfterTrapAtWindowTail pins RunBudget's trap contract
// where no superblock can be built: a SYS or CHK in the last bytes of the
// address space runs on the Step fallback, and the call must still return
// right after its handler, having spent only the trap's cycles.
func TestRunBudgetReturnsAfterTrapAtWindowTail(t *testing.T) {
	for _, tt := range []struct {
		name   string
		trap   Instr
		cycles uint64
		next   uint16 // PC past the trap, wrapped
	}{
		{"SYS", Instr{Op: OpSYS, Imm: 7}, 2, 0x0002},
		{"CHK", Instr{Op: OpCHK}, 1, 0x0000},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ram := &FlatRAM{}
			putInstr(ram, 0xfffe, tt.trap)
			putInstr(ram, tt.next, Instr{Op: OpJMP, Imm: 0xfffe})
			traps := 0
			c := &Core{Bus: ram}
			c.Sys = func(uint16, *Core) { traps++ }
			c.Checkpoint = func(*Core) { traps++ }
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
func putInstr(ram *FlatRAM, addr uint16, in Instr) {
	var buf [4]byte
	for i := range in.Encode(buf[:]) {
		ram.Mem[addr+uint16(i)] = buf[i]
	}
}

func TestInvalidOpcodeHalts(t *testing.T) {
	ram := &FlatRAM{}
	ram.Mem[0] = 0xEE // undefined opcode
	c := &Core{Bus: ram}
	c.Reset(0)
	if _, err := c.Step(); err == nil {
		t.Fatal("invalid opcode should error")
	}
	if !c.Halted {
		t.Error("invalid opcode should halt the core")
	}
	// Further steps are no-ops.
	if _, err := c.Step(); err != nil {
		t.Error("halted step should not error")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #3      ; 2 cycles
    NOP              ; 1
    HALT             ; 1
`)
	mustRun(t, c, 10)
	if c.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", c.Cycles)
	}
}

func TestResetClearsVolatileState(t *testing.T) {
	c := runAsm(t, "start:\n MOVI r1, #9\n HALT\n")
	mustRun(t, c, 10)
	c.Reset(0x100)
	if c.R[1] != 0 || c.PC != 0x100 || c.Halted {
		t.Error("reset did not clear state")
	}
}

func TestRunMaxSteps(t *testing.T) {
	c := runAsm(t, "start:\n JMP start\n")
	n, err := c.Run(50)
	if err != nil || n != 50 {
		t.Errorf("infinite loop ran %d steps (err=%v), want 50", n, err)
	}
	if c.Halted {
		t.Error("loop should not halt")
	}
}

func TestAddCarryFlag(t *testing.T) {
	c := runAsm(t, `
start:
    MOVI r1, #0xffff
    ADDI r1, #1      ; wraps, sets C
    JC   carry
    MOVI r2, #0
    HALT
carry:
    MOVI r2, #1
    HALT
`)
	mustRun(t, c, 100)
	if c.R[2] != 1 || c.R[1] != 0 {
		t.Errorf("carry path: r1=%d r2=%d", c.R[1], c.R[2])
	}
}

func TestFlatRAMWord(t *testing.T) {
	m := &FlatRAM{}
	m.Write16(0x10, 0xBEEF)
	if m.Read16(0x10) != 0xBEEF {
		t.Error("word round-trip failed")
	}
	if m.Read8(0x10) != 0xEF || m.Read8(0x11) != 0xBE {
		t.Error("not little endian")
	}
	if m.AccessCycles(0, false) != 0 {
		t.Error("flat RAM should be zero-wait")
	}
}

func TestJGEJNBehaviour(t *testing.T) {
	// 3 >= 3 signed takes JGE; result of SUB sets N for negative.
	c := runAsm(t, `
start:
    MOVI r1, #3
    CMPI r1, #3
    JGE  ge
    HALT
ge:
    MOVI r2, #1
    MOVI r3, #1
    SUBI r3, #5      ; -4, N set
    JN   neg
    HALT
neg:
    MOVI r4, #1
    HALT
`)
	mustRun(t, c, 100)
	if c.R[2] != 1 || c.R[4] != 1 {
		t.Errorf("JGE/JN: r2=%d r4=%d, want 1,1", c.R[2], c.R[4])
	}
}

// TestSuperblockAliasHazard pins alias safety of the superblock cache.
// PCs 0x4000 and 0x6000 map to the same superblock set
// ((pc>>1) & sbMask), so a tight ping-pong between them is the
// worst-case thrash pattern: the set holds both hot blocks only because
// it is 2-way. Raw-byte revalidation must keep every replay correct, and
// in steady state block executions must be served from cache — hits
// vastly outnumbering builds proves neither block evicts the other.
func TestSuperblockAliasHazard(t *testing.T) {
	const rounds = 2000
	if (0x4000>>1)&sbMask != (0x6000>>1)&sbMask {
		t.Fatal("test premise broken: PCs no longer share a superblock set")
	}
	c := runAsm(t, `
start:
    MOVI r1, #2000     ; ping-pong rounds
    MOVI r2, #0        ; accumulator
    JMP  ping
.org 0x4000
ping:
    ADDI r2, #3
    JMP  pong
.org 0x6000
pong:
    ADDI r2, #4
    SUBI r1, #1
    JNZ  ping
    HALT
`)
	// Drive execution through the superblock engine, as the device does.
	for !c.Halted {
		if _, _, err := c.RunBudget(4096); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if want := uint16(rounds * 7); c.R[2] != want {
		t.Fatalf("accumulator = %d, want %d — stale decode survived aliasing", c.R[2], want)
	}
	hits, builds := c.SuperblockStats()
	if builds > 8 {
		t.Errorf("superblock builds = %d; aliased blocks are evicting each other", builds)
	}
	if hits < rounds {
		t.Errorf("superblock hits = %d, want >= %d (steady-state replay from cache)", hits, rounds)
	}
}
