package isa

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzAssemble feeds arbitrary source to the assembler. It must never
// panic, every error it reports must carry a line number, and a program
// it accepts must have sorted, non-empty, non-overlapping segments that
// stay inside the 64 KiB address space (no wrap onto 0x0000), with
// Size() equal to the bytes they cover and LoadInto writing exactly them.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			for _, line := range strings.Split(err.Error(), "\n")[1:] {
				if !strings.HasPrefix(line, "  line ") {
					t.Fatalf("error line %q has no line number", line)
				}
			}
			return
		}
		covered, prevEnd := 0, 0
		for _, seg := range p.Segments {
			end := int(seg.Addr) + len(seg.Data)
			switch {
			case len(seg.Data) == 0:
				t.Fatalf("empty segment at 0x%04x", seg.Addr)
			case int(seg.Addr) < prevEnd:
				t.Fatalf("segment at 0x%04x starts before the previous one ends (0x%04x)", seg.Addr, prevEnd)
			case end > 1<<16:
				t.Fatalf("segment at 0x%04x with %d bytes wraps past 0xffff", seg.Addr, len(seg.Data))
			}
			covered += len(seg.Data)
			prevEnd = end
		}
		if p.Size() != covered {
			t.Fatalf("Size() = %d, segments cover %d bytes", p.Size(), covered)
		}
		ram := &FlatRAM{}
		p.LoadInto(ram)
		for _, seg := range p.Segments {
			if got := ram.Mem[seg.Addr : int(seg.Addr)+len(seg.Data)]; !bytes.Equal(got, seg.Data) {
				t.Fatalf("LoadInto left %x at 0x%04x, segment holds %x", got, seg.Addr, seg.Data)
			}
		}
	})
}
