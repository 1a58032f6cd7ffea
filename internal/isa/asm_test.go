package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAssembleDirectives(t *testing.T) {
	p, err := Assemble(`
BASE = 0x2000
.org 0x100
start:
    MOVI r1, #BASE
    HALT
.org 0x200
table: .word 1, 0x7fff, -2
buf:   .space 4
bytes: .byte 0xAA, 0xBB
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x100 {
		t.Errorf("entry = 0x%04x, want 0x100", p.Entry)
	}
	if p.Labels["table"] != 0x200 {
		t.Errorf("table = 0x%04x, want 0x200", p.Labels["table"])
	}
	if p.Labels["buf"] != 0x206 {
		t.Errorf("buf = 0x%04x, want 0x206", p.Labels["buf"])
	}
	if p.Labels["bytes"] != 0x20a {
		t.Errorf("bytes = 0x%04x, want 0x20a", p.Labels["bytes"])
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	if ram.Read16(0x202) != 0x7fff || ram.Read16(0x204) != 0xfffe {
		t.Error(".word values wrong")
	}
	if ram.Read8(0x20a) != 0xAA || ram.Read8(0x20b) != 0xBB {
		t.Error(".byte values wrong")
	}
	// MOVI immediate resolved from the constant.
	if ram.Read16(0x102) != 0x2000 {
		t.Errorf("constant immediate = 0x%04x", ram.Read16(0x102))
	}
	if p.Size() != 6+6+4+2 {
		t.Errorf("size = %d", p.Size())
	}
}

func TestAssembleForwardReference(t *testing.T) {
	p, err := Assemble(`
start:
    JMP  end
    NOP
end:
    HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	c := &Core{Bus: ram}
	c.Reset(p.Entry)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Error("forward jump failed")
	}
}

func TestAssembleLabelArithmetic(t *testing.T) {
	p, err := Assemble(`
.org 0x300
data: .word 10, 20, 30
start:
    MOVI r1, #data+4
    MOVI r2, #0
    LD   r3, [r1+0]
    HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	c := &Core{Bus: ram}
	c.Reset(p.Entry)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.R[3] != 30 {
		t.Errorf("label+4 load = %d, want 30", c.R[3])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown mnemonic", "FROB r1", "unknown mnemonic"},
		{"bad register", "MOV r1, r99", "invalid register"},
		{"undefined symbol", "MOVI r1, #nowhere", "undefined symbol"},
		{"duplicate label", "a:\nNOP\na:\nNOP", "duplicate label"},
		{"shift range", "SHL r1, #16", "out of range"},
		{"operand count", "MOV r1", "expects 2 operand"},
		{"bad memory operand", "LD r1, r2", "invalid memory operand"},
		{"duplicate constant", "x = 1\nx = 2", "duplicate constant"},
		{"wraps past 0xffff", ".org 0xfffe\nMOVI r1, #1", "line 2: 0xfffe+4 runs past 0xffff"},
		{"data wraps past 0xffff", ".org 0xfffe\n.word 1\n.byte 2", "line 3: 0x10000+1 runs past 0xffff"},
		{"overlapping org", "NOP\nNOP\n.org 0x0002\nHALT\n.org 0\nHALT", "line 6: bytes at 0x0000 overlap earlier code or data"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestAssembleSPAlias(t *testing.T) {
	p, err := Assemble(`
start:
    MOVI sp, #0xfe00
    MOVI r1, #7
    PUSH r1
    HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	c := &Core{Bus: ram}
	c.Reset(p.Entry)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.R[SP] != 0xfdfe || ram.Read16(0xfdfe) != 7 {
		t.Error("sp alias / push broken")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Property: every well-formed instruction survives encode→decode.
	f := func(opRaw, dst, src uint8, imm uint16) bool {
		op := Op(opRaw % uint8(opMax))
		in := Instr{Op: op, Dst: dst % 16, Src: src % 16, Imm: imm}
		spec, _ := SpecFor(op)
		switch spec.Format {
		case FmtNone:
			in.Dst, in.Src, in.Imm = 0, 0, 0
		case FmtReg:
			in.Src, in.Imm = 0, 0
		case FmtRegReg, FmtRegImm4:
			in.Imm = 0
		case FmtRegImm:
			in.Src = 0
		case FmtImm:
			in.Dst, in.Src = 0, 0
		}
		var buf [4]byte
		n := in.Encode(buf[:])
		got, m, err := Decode(buf[:n], 0)
		if err != nil || m != n {
			return false
		}
		got.Addr = in.Addr
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
start:
    MOVI r1, #100
    ADD  r1, r2
    LD   r3, [r1+8]
    ST   [r1+8], r3
    SHL  r3, #2
    JMP  start
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	lines := Disassemble(ram, 0, uint16(p.Size()))
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"MOVI r1, #100", "ADD r1, r2", "LD r3, [r1+8]", "ST [r1+8], r3", "SHL r3, #2", "JMP #0x0000"} {
		if !strings.Contains(joined, want) {
			t.Errorf("disassembly missing %q:\n%s", want, joined)
		}
	}
}

func TestDisassembleInvalidBytes(t *testing.T) {
	ram := &FlatRAM{}
	ram.Mem[0] = 0xEE
	lines := Disassemble(ram, 0, 1)
	if len(lines) != 1 || !strings.Contains(lines[0], ".byte") {
		t.Errorf("invalid byte disassembly = %v", lines)
	}
}

func TestAssembleCommentsAndBlank(t *testing.T) {
	p, err := Assemble(`
; full-line comment

start: NOP ; trailing comment
       HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 {
		t.Errorf("size = %d, want 4", p.Size())
	}
}

func TestAssembleNegativeImmediates(t *testing.T) {
	p, err := Assemble(`
start:
    MOVI r1, #-1
    ADDI r1, #-2
    HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	ram := &FlatRAM{}
	p.LoadInto(ram)
	c := &Core{Bus: ram}
	c.Reset(p.Entry)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if int16(c.R[1]) != -3 {
		t.Errorf("negative immediates: %d, want -3", int16(c.R[1]))
	}
}

// TestRandomProgramsNeverPanic fuzzes the decoder/interpreter with random
// memory images: the core must halt or keep running but never panic.
func TestRandomProgramsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ram := &FlatRAM{}
		for i := 0; i < 4096; i++ {
			ram.Mem[i] = byte(rng.Intn(256))
		}
		c := &Core{Bus: ram}
		c.Reset(0)
		c.R[SP] = 0x8000
		c.Run(500) // errors are fine; panics are not
	}
}
