package isa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Segment is one contiguous assembled byte range in the image.
type Segment struct {
	Addr uint16
	Data []byte
}

// Program is the output of the assembler: a sparse 64 KiB image plus the
// symbol table.
type Program struct {
	Segments []Segment
	Labels   map[string]uint16
	Entry    uint16 // address of the "start" label, or of the first byte
}

// LoadInto copies all assembled segments into the bus.
func (p *Program) LoadInto(bus Bus) {
	for _, seg := range p.Segments {
		for i, b := range seg.Data {
			bus.Write8(seg.Addr+uint16(i), b)
		}
	}
}

// Size returns the total number of assembled bytes.
func (p *Program) Size() int {
	n := 0
	for _, seg := range p.Segments {
		n += len(seg.Data)
	}
	return n
}

// mnemonicOps maps assembly mnemonics to opcodes.
var mnemonicOps = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := Op(0); op < opMax; op++ {
		m[specs[op].Mnemonic] = op
	}
	return m
}()

// assembler holds state across the two passes.
type assembler struct {
	labels map[string]uint16
	consts map[string]uint16
	errs   []string
}

// Assemble translates EVM-16 assembly source into a Program.
//
// Syntax summary:
//
//	; comment                 — to end of line
//	label:                    — define label at current address
//	name = expr               — define a constant
//	.org ADDR                 — set the location counter
//	.word e1, e2, ...         — emit 16-bit values
//	.byte e1, e2, ...         — emit 8-bit values
//	.space N                  — reserve N zero bytes
//	MOVI r1, #expr            — immediates take #; jump/call targets may
//	JMP  label                  omit it
//	LD   r1, [r2+4]           — base-register plus signed offset
//
// Expressions are sums/differences of decimal or 0x-hex numbers, labels,
// and constants. Registers are r0–r15; "sp" is an alias for r15.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		labels: make(map[string]uint16),
		consts: make(map[string]uint16),
	}
	lines := strings.Split(src, "\n")

	// Pass 1: assign addresses to labels.
	pc := uint16(0)
	orgSeen := false
	first := uint16(0)
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		line = a.takeLabels(line, pc, ln)
		if line == "" {
			continue
		}
		if ok := a.defineConst(line, ln); ok {
			continue
		}
		fields := splitOperands(line)
		mnem := strings.ToUpper(fields.mnemonic)
		switch {
		case mnem == ".ORG":
			v, err := a.eval(fields.rest, ln)
			if err != nil {
				a.errorf(ln, "%v", err)
				continue
			}
			pc = v
			if !orgSeen {
				first, orgSeen = pc, true
			}
		case mnem == ".WORD":
			if !orgSeen {
				first, orgSeen = pc, true
			}
			pc += uint16(2 * len(splitList(fields.rest)))
		case mnem == ".BYTE":
			if !orgSeen {
				first, orgSeen = pc, true
			}
			pc += uint16(len(splitList(fields.rest)))
		case mnem == ".SPACE":
			v, err := a.eval(fields.rest, ln)
			if err != nil {
				a.errorf(ln, "%v", err)
				continue
			}
			if !orgSeen {
				first, orgSeen = pc, true
			}
			pc += v
		default:
			op, ok := mnemonicOps[mnem]
			if !ok {
				a.errorf(ln, "unknown mnemonic %q", fields.mnemonic)
				continue
			}
			if !orgSeen {
				first, orgSeen = pc, true
			}
			pc += uint16(Length(op))
		}
	}

	// Pass 2: encode. The location counter is an int here so code that
	// runs past 0xffff is rejected instead of wrapping onto 0x0000, and
	// used marks every byte already emitted so a later .org cannot
	// silently overwrite earlier code.
	var segs []Segment
	var cur *Segment
	var used [1 << 16 / 64]uint64
	loc := 0
	emit := func(ln int, bytes []byte) {
		end := loc + len(bytes)
		switch {
		case len(bytes) == 0:
		case end > 1<<16:
			a.errorf(ln, "0x%04x+%d runs past 0xffff", loc, len(bytes))
		case overlaps(&used, loc, end):
			a.errorf(ln, "bytes at 0x%04x overlap earlier code or data", loc)
		default:
			for i := loc; i < end; i++ {
				used[i/64] |= 1 << (i % 64)
			}
			if cur == nil || int(cur.Addr)+len(cur.Data) != loc {
				segs = append(segs, Segment{Addr: uint16(loc)})
				cur = &segs[len(segs)-1]
			}
			cur.Data = append(cur.Data, bytes...)
		}
		loc = end
	}
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		line = dropLabels(line)
		if line == "" {
			continue
		}
		if isConstDef(line) {
			continue
		}
		fields := splitOperands(line)
		mnem := strings.ToUpper(fields.mnemonic)
		switch mnem {
		case ".ORG":
			v, _ := a.eval(fields.rest, ln)
			loc = int(v)
			cur = nil
		case ".WORD", ".BYTE":
			var out []byte
			for _, item := range splitList(fields.rest) {
				v, err := a.eval(item, ln)
				if err != nil {
					a.errorf(ln, "%v", err)
					v = 0
				}
				out = append(out, byte(v))
				if mnem == ".WORD" {
					out = append(out, byte(v>>8))
				}
			}
			emit(ln, out)
		case ".SPACE":
			v, _ := a.eval(fields.rest, ln)
			emit(ln, make([]byte, v))
		default:
			op := mnemonicOps[mnem]
			in, err := a.parseOperands(op, fields.rest, ln)
			if err != nil {
				a.errorf(ln, "%v", err)
				continue
			}
			var buf [4]byte
			n := in.Encode(buf[:])
			emit(ln, buf[:n])
		}
	}

	if len(a.errs) > 0 {
		return nil, fmt.Errorf("assembly failed:\n  %s", strings.Join(a.errs, "\n  "))
	}
	entry := first
	if e, ok := a.labels["start"]; ok {
		entry = e
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Addr < segs[j].Addr })
	return &Program{Segments: segs, Labels: a.labels, Entry: entry}, nil
}

// overlaps reports whether any byte in [from, to) is marked in used.
func overlaps(used *[1 << 16 / 64]uint64, from, to int) bool {
	for i := from; i < to; i++ {
		if used[i/64]&(1<<(i%64)) != 0 {
			return true
		}
	}
	return false
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, fmt.Sprintf("line %d: %s", line+1, fmt.Sprintf(format, args...)))
}

// stripComment removes ;-comments and surrounding whitespace.
func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// takeLabels peels leading "name:" definitions off the line, recording
// them at address pc, and returns the remainder.
func (a *assembler) takeLabels(line string, pc uint16, ln int) string {
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			return line
		}
		name := strings.TrimSpace(line[:i])
		if !isIdent(name) {
			return line
		}
		if _, dup := a.labels[name]; dup {
			a.errorf(ln, "duplicate label %q", name)
		}
		a.labels[name] = pc
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return ""
		}
	}
}

// dropLabels removes leading label definitions without recording them
// (pass 2).
func dropLabels(line string) string {
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			return line
		}
		if !isIdent(strings.TrimSpace(line[:i])) {
			return line
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return ""
		}
	}
}

// defineConst handles "name = expr" lines in pass 1.
func (a *assembler) defineConst(line string, ln int) bool {
	if !isConstDef(line) {
		return false
	}
	i := strings.IndexByte(line, '=')
	name := strings.TrimSpace(line[:i])
	v, err := a.eval(strings.TrimSpace(line[i+1:]), ln)
	if err != nil {
		a.errorf(ln, "constant %q: %v", name, err)
		return true
	}
	if _, dup := a.consts[name]; dup {
		a.errorf(ln, "duplicate constant %q", name)
	}
	a.consts[name] = v
	return true
}

func isConstDef(line string) bool {
	i := strings.IndexByte(line, '=')
	if i <= 0 {
		return false
	}
	return isIdent(strings.TrimSpace(line[:i]))
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lineFields separates the mnemonic from its operand text.
type lineFields struct {
	mnemonic string
	rest     string
}

func splitOperands(line string) lineFields {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return lineFields{mnemonic: line}
	}
	return lineFields{mnemonic: line[:i], rest: strings.TrimSpace(line[i+1:])}
}

// splitList splits a comma-separated operand list.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// eval evaluates a sum/difference expression of numbers, labels and
// constants.
func (a *assembler) eval(expr string, ln int) (uint16, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, fmt.Errorf("empty expression")
	}
	var total int64
	sign := int64(1)
	tok := strings.Builder{}
	flush := func() error {
		if tok.Len() == 0 {
			return nil
		}
		v, err := a.term(tok.String())
		if err != nil {
			return err
		}
		total += sign * int64(v)
		tok.Reset()
		return nil
	}
	for i, r := range expr {
		switch r {
		case '+':
			if err := flush(); err != nil {
				return 0, err
			}
			sign = 1
		case '-':
			if i == 0 || tok.Len() > 0 {
				if tok.Len() == 0 && i == 0 {
					sign = -1
					continue
				}
				if err := flush(); err != nil {
					return 0, err
				}
				sign = -1
			} else {
				sign = -sign
			}
		case ' ', '\t':
		default:
			tok.WriteRune(r)
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return uint16(total), nil
}

// term resolves one token: number, label, or constant.
func (a *assembler) term(tok string) (uint16, error) {
	if v, err := strconv.ParseInt(tok, 0, 32); err == nil {
		return uint16(v), nil
	}
	if v, ok := a.consts[tok]; ok {
		return v, nil
	}
	if v, ok := a.labels[tok]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("undefined symbol %q", tok)
}

// parseReg parses r0–r15 or sp.
func parseReg(tok string) (uint8, error) {
	tok = strings.ToLower(strings.TrimSpace(tok))
	if tok == "sp" {
		return SP, nil
	}
	if len(tok) >= 2 && tok[0] == 'r' {
		n, err := strconv.Atoi(tok[1:])
		if err == nil && n >= 0 && n <= 15 {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("invalid register %q", tok)
}

// parseMem parses [rN], [rN+expr] or [rN-expr], returning base register and
// offset.
func (a *assembler) parseMem(tok string, ln int) (uint8, uint16, error) {
	tok = strings.TrimSpace(tok)
	if len(tok) < 2 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return 0, 0, fmt.Errorf("invalid memory operand %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	// Find the register part: up to the first +/- not at position 0.
	sep := -1
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			sep = i
			break
		}
	}
	regTok, offTok := inner, ""
	if sep > 0 {
		regTok, offTok = inner[:sep], inner[sep:]
	}
	reg, err := parseReg(regTok)
	if err != nil {
		return 0, 0, err
	}
	var off uint16
	if offTok != "" {
		off, err = a.eval(offTok, ln)
		if err != nil {
			return 0, 0, err
		}
	}
	return reg, off, nil
}

// parseImm parses an immediate, with or without a leading '#'.
func (a *assembler) parseImm(tok string, ln int) (uint16, error) {
	tok = strings.TrimSpace(tok)
	tok = strings.TrimPrefix(tok, "#")
	return a.eval(tok, ln)
}

// parseOperands builds an Instr for op from its operand text.
func (a *assembler) parseOperands(op Op, rest string, ln int) (Instr, error) {
	spec := specs[op]
	ops := splitList(rest)
	in := Instr{Op: op}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s expects %d operand(s), got %d", spec.Mnemonic, n, len(ops))
		}
		return nil
	}
	switch spec.Format {
	case FmtNone:
		if err := need(0); err != nil {
			return in, err
		}
	case FmtReg:
		if err := need(1); err != nil {
			return in, err
		}
		r, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		in.Dst = r
	case FmtRegReg:
		if err := need(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		s, err := parseReg(ops[1])
		if err != nil {
			return in, err
		}
		in.Dst, in.Src = d, s
	case FmtRegImm4:
		if err := need(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		v, err := a.parseImm(ops[1], ln)
		if err != nil {
			return in, err
		}
		if v > 15 {
			return in, fmt.Errorf("%s shift amount %d out of range 0–15", spec.Mnemonic, v)
		}
		in.Dst, in.Src = d, uint8(v)
	case FmtRegImm:
		if err := need(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		v, err := a.parseImm(ops[1], ln)
		if err != nil {
			return in, err
		}
		in.Dst, in.Imm = d, v
	case FmtRegRegImm:
		if err := need(2); err != nil {
			return in, err
		}
		switch op {
		case OpST, OpSTB:
			// ST [rd+imm], rs
			base, off, err := a.parseMem(ops[0], ln)
			if err != nil {
				return in, err
			}
			s, err := parseReg(ops[1])
			if err != nil {
				return in, err
			}
			in.Dst, in.Src, in.Imm = base, s, off
		default:
			// LD rd, [rs+imm]
			d, err := parseReg(ops[0])
			if err != nil {
				return in, err
			}
			base, off, err := a.parseMem(ops[1], ln)
			if err != nil {
				return in, err
			}
			in.Dst, in.Src, in.Imm = d, base, off
		}
	case FmtImm:
		if err := need(1); err != nil {
			return in, err
		}
		v, err := a.parseImm(ops[0], ln)
		if err != nil {
			return in, err
		}
		in.Imm = v
	}
	return in, nil
}

// Disassemble decodes length bytes starting at addr from the bus into
// assembly listing lines ("ADDR: INSTR").
func Disassemble(bus Bus, addr, length uint16) []string {
	var out []string
	end := uint32(addr) + uint32(length)
	for pc := uint32(addr); pc < end; {
		var buf [4]byte
		for i := range buf {
			buf[i] = bus.Read8(uint16(pc) + uint16(i))
		}
		in, n, err := Decode(buf[:], uint16(pc))
		if err != nil {
			out = append(out, fmt.Sprintf("0x%04x: .byte 0x%02x", pc, buf[0]))
			pc++
			continue
		}
		out = append(out, fmt.Sprintf("0x%04x: %s", pc, in.String()))
		pc += uint32(n)
	}
	return out
}
