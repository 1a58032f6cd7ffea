// Package isa defines EVM-16, the 16-bit embedded virtual machine the
// simulator's guest programs run on, together with its interpreter,
// two-pass assembler and disassembler.
//
// EVM-16 is deliberately MSP430-flavoured — the paper's transient-computing
// systems (hibernus, Mementos, QuickRecall) all target MSP430-class
// microcontrollers — without copying the MSP430 encoding:
//
//   - 16 general-purpose 16-bit registers R0–R15; R15 doubles as the stack
//     pointer (alias "sp" in assembly) used by PUSH/POP/CALL/RET.
//   - A separate 16-bit program counter and four condition flags
//     (Z zero, N negative, C carry/no-borrow, GE signed-greater-or-equal).
//   - 64 KiB byte-addressable little-endian memory behind a Bus interface,
//     so the MCU layer can map SRAM and FRAM regions with distinct wait
//     states and energy costs.
//   - A small DSP extension (MUL, QMUL) standing in for the MSP430 hardware
//     multiplier, which the FFT workload depends on.
//   - Two trap instructions used by the transient runtimes: CHK (a
//     compile-time checkpoint site, the hook Mementos instruments) and SYS
//     (host services: sensors, result emission).
//
// The volatile state of the machine — registers, PC, flags, and whatever
// SRAM the program uses — is exactly what the paper's checkpointing schemes
// must save and restore, so fidelity here is what makes the snapshot-size
// and snapshot-energy numbers meaningful.
package isa

import "fmt"

// Op is an EVM-16 opcode.
type Op uint8

// The EVM-16 instruction set.
const (
	OpNOP Op = iota
	OpHALT
	OpMOV  // MOV rd, rs
	OpMOVI // MOVI rd, #imm
	OpLD   // LD rd, [rs+imm]
	OpST   // ST [rd+imm], rs
	OpLDB  // LDB rd, [rs+imm]   (zero-extended byte load)
	OpSTB  // STB [rd+imm], rs   (low byte store)
	OpPUSH // PUSH rs
	OpPOP  // POP rd
	OpADD  // ADD rd, rs
	OpADDI // ADDI rd, #imm
	OpSUB  // SUB rd, rs
	OpSUBI // SUBI rd, #imm
	OpAND  // AND rd, rs
	OpOR   // OR rd, rs
	OpXOR  // XOR rd, rs
	OpNOT  // NOT rd
	OpNEG  // NEG rd
	OpSHL  // SHL rd, #n (n = 0..15, encoded in the src nibble)
	OpSHR  // SHR rd, #n (logical)
	OpSAR  // SAR rd, #n (arithmetic)
	OpMUL  // MUL rd, rs: rd = low 16 of signed product, HI = high 16
	OpQMUL // QMUL rd, rs: rd = (rd*rs)>>15 signed Q15 product, saturated
	OpCMP  // CMP rd, rs (flags only)
	OpCMPI // CMPI rd, #imm
	OpJMP  // JMP #addr
	OpJZ   // JZ #addr
	OpJNZ  // JNZ #addr
	OpJC   // JC #addr
	OpJNC  // JNC #addr
	OpJN   // JN #addr (negative)
	OpJGE  // JGE #addr (signed >=, from CMP/SUB)
	OpJLT  // JLT #addr (signed <)
	OpCALL // CALL #addr
	OpRET  // RET
	OpSYS  // SYS #code (host service trap)
	OpCHK  // CHK (checkpoint site trap; NOP unless a runtime hooks it)
	opMax
)

// Format describes how an instruction's operands are encoded.
type Format uint8

// Operand formats.
const (
	FmtNone      Format = iota // no operands            (2 bytes)
	FmtReg                     // one register in dst     (2 bytes)
	FmtRegReg                  // dst and src registers   (2 bytes)
	FmtRegImm4                 // dst register + 4-bit immediate in src nibble (2 bytes)
	FmtRegImm                  // dst register + 16-bit immediate (4 bytes)
	FmtRegRegImm               // dst, src registers + 16-bit immediate (4 bytes)
	FmtImm                     // 16-bit immediate only   (4 bytes)
)

// Spec describes one opcode: assembly mnemonic, operand format, and base
// cycle cost (memory wait states are added by the Bus).
type Spec struct {
	Mnemonic string
	Format   Format
	Cycles   uint64
}

// specs is indexed by Op.
var specs = [opMax]Spec{
	OpNOP:  {"NOP", FmtNone, 1},
	OpHALT: {"HALT", FmtNone, 1},
	OpMOV:  {"MOV", FmtRegReg, 1},
	OpMOVI: {"MOVI", FmtRegImm, 2},
	OpLD:   {"LD", FmtRegRegImm, 3},
	OpST:   {"ST", FmtRegRegImm, 3},
	OpLDB:  {"LDB", FmtRegRegImm, 3},
	OpSTB:  {"STB", FmtRegRegImm, 3},
	OpPUSH: {"PUSH", FmtReg, 3},
	OpPOP:  {"POP", FmtReg, 2},
	OpADD:  {"ADD", FmtRegReg, 1},
	OpADDI: {"ADDI", FmtRegImm, 2},
	OpSUB:  {"SUB", FmtRegReg, 1},
	OpSUBI: {"SUBI", FmtRegImm, 2},
	OpAND:  {"AND", FmtRegReg, 1},
	OpOR:   {"OR", FmtRegReg, 1},
	OpXOR:  {"XOR", FmtRegReg, 1},
	OpNOT:  {"NOT", FmtReg, 1},
	OpNEG:  {"NEG", FmtReg, 1},
	OpSHL:  {"SHL", FmtRegImm4, 1},
	OpSHR:  {"SHR", FmtRegImm4, 1},
	OpSAR:  {"SAR", FmtRegImm4, 1},
	OpMUL:  {"MUL", FmtRegReg, 3},
	OpQMUL: {"QMUL", FmtRegReg, 3},
	OpCMP:  {"CMP", FmtRegReg, 1},
	OpCMPI: {"CMPI", FmtRegImm, 2},
	OpJMP:  {"JMP", FmtImm, 2},
	OpJZ:   {"JZ", FmtImm, 2},
	OpJNZ:  {"JNZ", FmtImm, 2},
	OpJC:   {"JC", FmtImm, 2},
	OpJNC:  {"JNC", FmtImm, 2},
	OpJN:   {"JN", FmtImm, 2},
	OpJGE:  {"JGE", FmtImm, 2},
	OpJLT:  {"JLT", FmtImm, 2},
	OpCALL: {"CALL", FmtImm, 4},
	OpRET:  {"RET", FmtNone, 3},
	OpSYS:  {"SYS", FmtImm, 2},
	OpCHK:  {"CHK", FmtNone, 1},
}

// SpecFor returns the Spec for op and whether op is a defined opcode.
func SpecFor(op Op) (Spec, bool) {
	if op >= opMax {
		return Spec{}, false
	}
	return specs[op], true
}

// opCycles and opLen are flat hot-path views of specs: the interpreter
// charges cycles and advances PC once per executed instruction, and
// indexing a word-sized table there beats copying a Spec (with its
// string header) per instruction.
var (
	opCycles [opMax]uint64
	opLen    [opMax]uint16
)

func init() {
	for op := Op(0); op < opMax; op++ {
		opCycles[op] = specs[op].Cycles
		switch specs[op].Format {
		case FmtRegImm, FmtRegRegImm, FmtImm:
			opLen[op] = 4
		default:
			opLen[op] = 2
		}
	}
}

// Length returns the encoded length in bytes of an instruction with the
// given opcode (2 or 4).
func Length(op Op) int {
	if op >= opMax {
		return 2
	}
	return int(opLen[op])
}

// Instr is a decoded instruction.
type Instr struct {
	Op   Op
	Dst  uint8  // destination register (0–15)
	Src  uint8  // source register or 4-bit immediate (0–15)
	Imm  uint16 // 16-bit immediate, if the format carries one
	Addr uint16 // address the instruction was fetched from
}

// String renders the instruction in assembly syntax.
func (in Instr) String() string {
	s, ok := SpecFor(in.Op)
	if !ok {
		return fmt.Sprintf(".invalid 0x%02x", uint8(in.Op))
	}
	switch s.Format {
	case FmtNone:
		return s.Mnemonic
	case FmtReg:
		return fmt.Sprintf("%s r%d", s.Mnemonic, in.Dst)
	case FmtRegReg:
		return fmt.Sprintf("%s r%d, r%d", s.Mnemonic, in.Dst, in.Src)
	case FmtRegImm4:
		return fmt.Sprintf("%s r%d, #%d", s.Mnemonic, in.Dst, in.Src)
	case FmtRegImm:
		return fmt.Sprintf("%s r%d, #%d", s.Mnemonic, in.Dst, int16(in.Imm))
	case FmtRegRegImm:
		switch in.Op {
		case OpST, OpSTB:
			return fmt.Sprintf("%s [r%d+%d], r%d", s.Mnemonic, in.Dst, int16(in.Imm), in.Src)
		default:
			return fmt.Sprintf("%s r%d, [r%d+%d]", s.Mnemonic, in.Dst, in.Src, int16(in.Imm))
		}
	case FmtImm:
		return fmt.Sprintf("%s #0x%04x", s.Mnemonic, in.Imm)
	}
	return s.Mnemonic
}

// Encode serialises the instruction into buf (which must have room for
// Size() bytes) and returns the number of bytes written.
func (in Instr) Encode(buf []byte) int {
	buf[0] = byte(in.Op)
	buf[1] = (in.Dst << 4) | (in.Src & 0x0f)
	n := Length(in.Op)
	if n == 4 {
		buf[2] = byte(in.Imm)
		buf[3] = byte(in.Imm >> 8)
	}
	return n
}

// Decode reads one instruction from buf. It returns the instruction and
// the number of bytes consumed, or an error for an undefined opcode or a
// truncated buffer.
func Decode(buf []byte, addr uint16) (Instr, int, error) {
	if len(buf) < 2 {
		return Instr{}, 0, fmt.Errorf("isa: truncated instruction at 0x%04x", addr)
	}
	op := Op(buf[0])
	if _, ok := SpecFor(op); !ok {
		return Instr{}, 0, fmt.Errorf("isa: invalid opcode 0x%02x at 0x%04x", buf[0], addr)
	}
	in := Instr{
		Op:   op,
		Dst:  buf[1] >> 4,
		Src:  buf[1] & 0x0f,
		Addr: addr,
	}
	n := Length(op)
	if n == 4 {
		if len(buf) < 4 {
			return Instr{}, 0, fmt.Errorf("isa: truncated immediate at 0x%04x", addr)
		}
		in.Imm = uint16(buf[2]) | uint16(buf[3])<<8
	}
	return in, n, nil
}
