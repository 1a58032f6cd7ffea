// Package mcu models the transiently-powered microcontroller the paper's
// runtimes execute on: an EVM-16 core behind a split SRAM/FRAM memory map,
// a DFS clock tree, an MSP430FR-flavoured current model, brown-out and
// power-on-reset behaviour, and an asynchronous snapshot engine that
// serialises volatile state into non-volatile memory.
//
// The Device implements circuit.Load, so it plugs directly onto a Rail: the
// rail integrates V_CC, the device draws mode-dependent current, and the
// experiment loop alternates rail steps with device ticks. Volatile state
// (registers + SRAM) is genuinely lost on brown-out — restored state can
// only come from a snapshot a runtime explicitly committed to FRAM, which
// is what makes the transient-computing comparisons honest.
package mcu

import "repro/internal/isa"

// Memory map defaults (matching programs.DefaultLayout).
const (
	DefaultSRAMBase = 0x0000
	DefaultSRAMSize = 0x1000 // 4 KiB volatile
	DefaultFRAMBase = 0x4000
	DefaultFRAMSize = 0xc000 // 48 KiB non-volatile
	DefaultSnapBase = 0xa000 // snapshot slots inside FRAM
)

// MMIO is a memory-mapped peripheral region handler. Offsets are relative
// to the region base.
type MMIO interface {
	ReadReg(off uint16) byte
	WriteReg(off uint16, v byte)
}

// DefaultMMIOBase is where the peripheral register window sits in the
// default memory map (the hole between SRAM and FRAM).
const (
	DefaultMMIOBase = 0x2000
	DefaultMMIOLen  = 0x0100
)

// Bus is the MCU memory system: SRAM (volatile) and FRAM (non-volatile)
// regions with per-region wait states, plus an optional memory-mapped
// peripheral window. Accesses outside all regions read zero and drop
// writes (open bus).
type Bus struct {
	SRAMBase uint16
	SRAM     []byte
	FRAMBase uint16
	FRAM     []byte

	// Peripheral window (optional; nil Periph disables it).
	MMIOBase uint16
	MMIOLen  uint16
	Periph   MMIO

	// FRAMWait is the extra cycles per FRAM access at the present core
	// frequency (MSP430FR parts insert wait states above ~8 MHz). The
	// Device updates it on frequency changes.
	FRAMWait uint64
}

// NewBus returns a bus with the default 4 KiB SRAM / 48 KiB FRAM map.
func NewBus() *Bus {
	return &Bus{
		SRAMBase: DefaultSRAMBase,
		SRAM:     make([]byte, DefaultSRAMSize),
		FRAMBase: DefaultFRAMBase,
		FRAM:     make([]byte, DefaultFRAMSize),
	}
}

// inSRAM reports whether addr falls in the SRAM region.
func (b *Bus) inSRAM(addr uint16) bool {
	return addr >= b.SRAMBase && uint32(addr) < uint32(b.SRAMBase)+uint32(len(b.SRAM))
}

// inFRAM reports whether addr falls in the FRAM region.
func (b *Bus) inFRAM(addr uint16) bool {
	return addr >= b.FRAMBase && uint32(addr) < uint32(b.FRAMBase)+uint32(len(b.FRAM))
}

// inMMIO reports whether addr falls in an enabled peripheral window.
func (b *Bus) inMMIO(addr uint16) bool {
	return b.Periph != nil && addr >= b.MMIOBase &&
		uint32(addr) < uint32(b.MMIOBase)+uint32(b.MMIOLen)
}

// Read8 implements isa.Bus.
func (b *Bus) Read8(addr uint16) byte {
	switch {
	case b.inSRAM(addr):
		return b.SRAM[addr-b.SRAMBase]
	case b.inFRAM(addr):
		return b.FRAM[addr-b.FRAMBase]
	case b.inMMIO(addr):
		return b.Periph.ReadReg(addr - b.MMIOBase)
	default:
		return 0
	}
}

// Write8 implements isa.Bus.
func (b *Bus) Write8(addr uint16, v byte) {
	switch {
	case b.inSRAM(addr):
		b.SRAM[addr-b.SRAMBase] = v
	case b.inFRAM(addr):
		b.FRAM[addr-b.FRAMBase] = v
	case b.inMMIO(addr):
		b.Periph.WriteReg(addr-b.MMIOBase, v)
	}
}

// Read16 implements isa.Bus (little endian). Accesses that fall entirely
// inside one RAM region take a single-bounds-check fast path; anything
// else (region edges, MMIO, open bus) falls back to the byte-wise reads,
// preserving their exact semantics and side-effect order.
func (b *Bus) Read16(addr uint16) uint16 {
	if i := int(addr) - int(b.SRAMBase); i >= 0 && i+1 < len(b.SRAM) {
		return uint16(b.SRAM[i]) | uint16(b.SRAM[i+1])<<8
	}
	if i := int(addr) - int(b.FRAMBase); i >= 0 && i+1 < len(b.FRAM) {
		return uint16(b.FRAM[i]) | uint16(b.FRAM[i+1])<<8
	}
	return uint16(b.Read8(addr)) | uint16(b.Read8(addr+1))<<8
}

// Write16 implements isa.Bus.
func (b *Bus) Write16(addr uint16, v uint16) {
	if i := int(addr) - int(b.SRAMBase); i >= 0 && i+1 < len(b.SRAM) {
		b.SRAM[i] = byte(v)
		b.SRAM[i+1] = byte(v >> 8)
		return
	}
	if i := int(addr) - int(b.FRAMBase); i >= 0 && i+1 < len(b.FRAM) {
		b.FRAM[i] = byte(v)
		b.FRAM[i+1] = byte(v >> 8)
		return
	}
	b.Write8(addr, byte(v))
	b.Write8(addr+1, byte(v>>8))
}

// AccessCycles implements isa.Bus: FRAM accesses pay the configured wait
// states; SRAM is zero-wait.
func (b *Bus) AccessCycles(addr uint16, _ bool) uint64 {
	if b.inFRAM(addr) {
		return b.FRAMWait
	}
	return 0
}

// ReadRange fills dst with the bytes at addr..addr+len(dst)-1, exactly
// as len(dst) successive Read8 calls would (including address wrap and
// open-bus zeros), but block-copying the spans that fall inside SRAM or
// FRAM. MMIO bytes still go through Read8 so peripheral side effects and
// ordering are preserved.
func (b *Bus) ReadRange(addr uint16, dst []byte) {
	for len(dst) > 0 {
		if i := int(addr) - int(b.SRAMBase); i >= 0 && i < len(b.SRAM) {
			n := copy(dst, b.SRAM[i:])
			dst = dst[n:]
			addr += uint16(n)
			continue
		}
		if i := int(addr) - int(b.FRAMBase); i >= 0 && i < len(b.FRAM) {
			n := copy(dst, b.FRAM[i:])
			dst = dst[n:]
			addr += uint16(n)
			continue
		}
		dst[0] = b.Read8(addr)
		dst = dst[1:]
		addr++
	}
}

// WriteRange stores src at addr..addr+len(src)-1, exactly as len(src)
// successive Write8 calls would (wrap, dropped open-bus writes), with
// SRAM/FRAM spans block-copied and MMIO bytes routed through Write8.
func (b *Bus) WriteRange(addr uint16, src []byte) {
	for len(src) > 0 {
		if i := int(addr) - int(b.SRAMBase); i >= 0 && i < len(b.SRAM) {
			n := copy(b.SRAM[i:], src)
			src = src[n:]
			addr += uint16(n)
			continue
		}
		if i := int(addr) - int(b.FRAMBase); i >= 0 && i < len(b.FRAM) {
			n := copy(b.FRAM[i:], src)
			src = src[n:]
			addr += uint16(n)
			continue
		}
		b.Write8(addr, src[0])
		src = src[1:]
		addr++
	}
}

// ScrambleSRAM overwrites all SRAM with a decaying-retention pattern,
// modelling the loss of volatile contents during a brown-out. The pattern
// is deliberately non-zero so code that "accidentally works" with zeroed
// memory still fails without a genuine restore.
func (b *Bus) ScrambleSRAM(seed uint32) {
	x := seed | 1
	for i := range b.SRAM {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b.SRAM[i] = byte(x)
	}
}

// FetchWindow implements isa.WindowBus: SRAM and FRAM are side-effect-
// free contiguous regions the core may fetch from, and load from and
// store to, by direct indexing. The FRAM window's wait pointer tracks
// frequency-dependent wait states live, so a DFS switch needs no window
// re-probe; it equals AccessCycles for every FRAM read and write, as the
// SRAM window's nil wait does for SRAM. (That needs SRAM and FRAM not to
// overlap, as in NewBus's map.) MMIO and open bus have no window.
func (b *Bus) FetchWindow(addr uint16) (isa.FetchWindow, bool) {
	if b.inFRAM(addr) {
		return isa.FetchWindow{Mem: b.FRAM, Base: b.FRAMBase, Wait: &b.FRAMWait}, true
	}
	if b.inSRAM(addr) {
		return isa.FetchWindow{Mem: b.SRAM, Base: b.SRAMBase}, true
	}
	return isa.FetchWindow{}, false
}

var _ isa.Bus = (*Bus)(nil)
var _ isa.WindowBus = (*Bus)(nil)
