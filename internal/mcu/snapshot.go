package mcu

// SnapshotKind selects how much volatile state a snapshot covers.
type SnapshotKind uint8

// Snapshot kinds.
const (
	// SnapFull saves CPU registers plus the whole SRAM image — what
	// hibernus and Mementos must do on a split-memory system.
	SnapFull SnapshotKind = iota
	// SnapRegs saves CPU registers only — sufficient on a unified-FRAM
	// (QuickRecall-style) system where data memory is already non-volatile.
	SnapRegs
)

// Snapshot slot framing constants.
const (
	snapMagic  = 0xc0de
	snapCommit = 0xa11d
	regBytes   = 2*16 + 2 + 2 + 2 // R0–R15, PC, HI, packed flags
	headerLen  = 10               // magic, seq, kind+pad, sramLen, auxLen
	trailerLen = 4                // checksum, commit
	// maxAuxBytes bounds the peripheral-state area reserved per slot.
	maxAuxBytes = 256
)

// snapshotStore manages two alternating snapshot slots in FRAM,
// double-buffered so an interrupted save can never destroy the previous
// good snapshot.
type snapshotStore struct {
	bus  *Bus
	base uint16
	seq  uint16

	// nextSave is the slot the next save will target, maintained
	// host-side so BeginSave does not have to read back and checksum
	// both slots (a full SRAM-sized traversal each) on every save just
	// to find which one to overwrite. Initialised lazily from newest()
	// and advanced by write(); an interrupted save leaves it unchanged,
	// so the retry targets the same (invalidated) slot, exactly as the
	// read-back computed it.
	nextSave int
	haveNext bool
}

func newSnapshotStore(bus *Bus, base uint16) *snapshotStore {
	return &snapshotStore{bus: bus, base: base}
}

// slotSize returns the byte size of one slot for the bus's SRAM size.
func (s *snapshotStore) slotSize() uint16 {
	return uint16(headerLen + regBytes + len(s.bus.SRAM) + maxAuxBytes + trailerLen)
}

// slotAddr returns the base address of slot i (0 or 1).
func (s *snapshotStore) slotAddr(i int) uint16 {
	return s.base + uint16(i)*s.slotSize()
}

// capture serialises the core + SRAM (+ peripheral aux state, if enabled)
// into a host-side buffer. kind controls whether SRAM is included.
func (d *Device) capture(kind SnapshotKind) []byte {
	core, bus := d.Core, d.Bus
	sramLen := 0
	if kind == SnapFull {
		sramLen = len(bus.SRAM)
	}
	var aux []byte
	if d.SnapshotAux && d.Aux != nil {
		aux = d.Aux.Capture()
		if len(aux) > maxAuxBytes {
			aux = aux[:maxAuxBytes]
		}
	}
	buf := make([]byte, 0, headerLen+regBytes+sramLen+len(aux)+trailerLen)
	put16 := func(v uint16) { buf = append(buf, byte(v), byte(v>>8)) }
	put16(snapMagic)
	put16(0) // seq patched at write time
	buf = append(buf, byte(kind), 0)
	put16(uint16(sramLen))
	put16(uint16(len(aux)))
	for _, r := range core.R {
		put16(r)
	}
	put16(core.PC)
	put16(core.HI)
	var flags uint16
	if core.ZF {
		flags |= 1
	}
	if core.NF {
		flags |= 2
	}
	if core.CF {
		flags |= 4
	}
	if core.GE {
		flags |= 8
	}
	put16(flags)
	if kind == SnapFull {
		buf = append(buf, bus.SRAM...)
	}
	buf = append(buf, aux...)
	return buf
}

// checksum is a simple multiplicative checksum over the payload:
// sum_{k} payload[k]·31^(n-1-k) mod 2^16 (Horner's rule). The loop is
// unrolled four bytes per iteration with precomputed powers of 31; all
// arithmetic is exact mod 2^16 (the widest intermediate fits uint32), so
// the result is bit-identical to the byte-at-a-time recurrence. Snapshot
// saves checksum a whole SRAM image per save, which is why the loop is
// worth unrolling.
func checksum(payload []byte) uint16 {
	const (
		p1 = 31
		p2 = p1 * p1 % (1 << 16)
		p3 = p2 * p1 % (1 << 16)
		p4 = p3 * p1 % (1 << 16)
	)
	var sum uint16
	for len(payload) >= 4 {
		sum = uint16(uint32(sum)*p4 +
			uint32(payload[0])*p3 + uint32(payload[1])*p2 +
			uint32(payload[2])*p1 + uint32(payload[3]))
		payload = payload[4:]
	}
	for _, b := range payload {
		sum = sum*31 + uint16(b)
	}
	return sum
}

// invalidate clears the commit flag of slot i (done at save start so an
// interrupted save leaves an invalid slot, never a stale-but-committed
// one).
func (s *snapshotStore) invalidate(i int) {
	addr := s.slotAddr(i)
	size := s.slotSize()
	s.bus.Write16(addr+size-2, 0)
}

// nextSlot returns the slot the next save should overwrite: the one
// that does not hold the newest valid snapshot. After the first lookup
// the answer is tracked host-side (see snapshotStore.nextSave), since a
// completed write makes its own slot the newest by sequence number.
func (s *snapshotStore) nextSlot() int {
	if !s.haveNext {
		_, s.nextSave = s.newest()
		s.haveNext = true
	}
	return s.nextSave
}

// write stores payload into slot i with the next sequence number,
// checksum, and commit flag. Called at save completion.
func (s *snapshotStore) write(i int, payload []byte) {
	s.seq++
	payload[2] = byte(s.seq)
	payload[3] = byte(s.seq >> 8)
	addr := s.slotAddr(i)
	s.bus.WriteRange(addr, payload)
	sum := checksum(payload)
	size := s.slotSize()
	s.bus.Write16(addr+size-4, sum)
	s.bus.Write16(addr+size-2, snapCommit)
	s.nextSave, s.haveNext = 1-i, true
}

// read validates slot i and returns its payload, or nil.
func (s *snapshotStore) read(i int) []byte {
	addr := s.slotAddr(i)
	size := s.slotSize()
	if s.bus.Read16(addr) != snapMagic {
		return nil
	}
	if s.bus.Read16(addr+size-2) != snapCommit {
		return nil
	}
	sramLen := s.bus.Read16(addr + 6)
	auxLen := s.bus.Read16(addr + 8)
	payloadLen := uint16(headerLen+regBytes) + sramLen + auxLen
	if payloadLen > size-trailerLen {
		return nil
	}
	payload := make([]byte, payloadLen)
	s.bus.ReadRange(addr, payload)
	if checksum(payload) != s.bus.Read16(addr+size-4) {
		return nil
	}
	return payload
}

// newest returns the valid slot payload with the highest sequence number,
// plus the index to use for the NEXT save (the other slot), or nil if no
// valid snapshot exists.
func (s *snapshotStore) newest() (payload []byte, nextSlot int) {
	p0, p1 := s.read(0), s.read(1)
	seqOf := func(p []byte) uint16 { return uint16(p[2]) | uint16(p[3])<<8 }
	switch {
	case p0 == nil && p1 == nil:
		return nil, 0
	case p1 == nil:
		return p0, 1
	case p0 == nil:
		return p1, 0
	case int16(seqOf(p0)-seqOf(p1)) > 0: // wrap-safe comparison
		return p0, 1
	default:
		return p1, 0
	}
}

// applySnapshot deserialises a payload into the core, (for full
// snapshots) SRAM, and (if present) the peripheral aux state.
func (d *Device) applySnapshot(payload []byte) {
	core, bus := d.Core, d.Bus
	get16 := func(off int) uint16 {
		return uint16(payload[off]) | uint16(payload[off+1])<<8
	}
	kind := SnapshotKind(payload[4])
	sramLen := int(get16(6))
	auxLen := int(get16(8))
	off := headerLen
	for i := range core.R {
		core.R[i] = get16(off)
		off += 2
	}
	core.PC = get16(off)
	off += 2
	core.HI = get16(off)
	off += 2
	flags := get16(off)
	off += 2
	core.ZF = flags&1 != 0
	core.NF = flags&2 != 0
	core.CF = flags&4 != 0
	core.GE = flags&8 != 0
	core.Halted = false
	if kind == SnapFull {
		copy(bus.SRAM, payload[off:off+sramLen])
		off += sramLen
	}
	if auxLen > 0 && d.Aux != nil {
		if err := d.Aux.Restore(payload[off : off+auxLen]); err != nil {
			// A corrupt aux section must not resume with half-applied
			// peripheral state. Restore guarantees no mutation on error,
			// but make the outcome explicit: power-on defaults, the same
			// state a peripheral-naive runtime resumes with.
			d.Aux.Reset()
		}
	}
}

// SnapshotBytes returns the number of bytes a snapshot of the given kind
// moves to NVM, including peripheral aux state when enabled.
func (d *Device) SnapshotBytes(kind SnapshotKind) int {
	aux := 0
	if d.SnapshotAux && d.Aux != nil {
		aux = len(d.Aux.Capture())
		if aux > maxAuxBytes {
			aux = maxAuxBytes
		}
	}
	return snapshotBytes(kind, len(d.Bus.SRAM), aux)
}

// snapshotBytes sizes a snapshot of kind over sram bytes of SRAM and aux
// bytes of peripheral state.
func snapshotBytes(kind SnapshotKind, sram, aux int) int {
	if kind == SnapRegs {
		return headerLen + regBytes + aux + trailerLen
	}
	return headerLen + regBytes + sram + aux + trailerLen
}

// DefaultSnapshotKind returns the snapshot kind natural to the device
// configuration: registers-only for unified-FRAM systems, full otherwise.
func (d *Device) DefaultSnapshotKind() SnapshotKind {
	if d.P.UnifiedNV {
		return SnapRegs
	}
	return SnapFull
}

// EstimateSnapshotEnergy returns E_s of the paper's eq. (4): the energy
// needed to complete one snapshot of the given kind at nominal rail
// voltage v.
func (d *Device) EstimateSnapshotEnergy(v float64, kind SnapshotKind) float64 {
	return d.P.busyEnergy(v, d.freq, d.SnapshotBytes(kind), d.P.ISaveExtra, d.P.SaveCyclesPerByte)
}

// OutageEnergy returns what one outage costs a device built with p, at
// DFS level p.FreqIndex and rail voltage v: a snapshot of kind (eq. (4)'s
// E_s) and its restore, sized by the default memory map without
// peripheral state. No device is built; eq. (5) compares two of these.
func (p Params) OutageEnergy(v float64, kind SnapshotKind) float64 {
	f, n := p.FreqLevels[p.FreqIndex], snapshotBytes(kind, DefaultSRAMSize, 0)
	return p.busyEnergy(v, f, n, p.ISaveExtra, p.SaveCyclesPerByte) +
		p.busyEnergy(v, f, n, p.IRestoreExtra, p.RestoreCyclesPerByte)
}

// busyEnergy is the energy a snapshot DMA of n bytes draws at clock f
// and rail voltage v, with the transfer's extra current and cycle cost.
func (p *Params) busyEnergy(v, f float64, n int, extra, cyclesPerByte float64) float64 {
	i := p.activeCurrent(f) + extra
	return i * v * (float64(n) * cyclesPerByte / f)
}

// HasSnapshot reports whether a valid committed snapshot exists.
func (d *Device) HasSnapshot() bool {
	p, _ := d.snaps.newest()
	return p != nil
}

// BeginSave starts an asynchronous snapshot: the device enters ModeSaving
// for the DMA duration and, if power holds, commits the snapshot and calls
// onDone. The target slot's commit flag is cleared immediately, so a save
// interrupted by a brown-out leaves the previous snapshot untouched and
// the new slot invalid. Returns false if the device is not in a state that
// can save (off, or already busy).
func (d *Device) BeginSave(kind SnapshotKind, onDone func()) bool {
	if d.mode != ModeActive && d.mode != ModeSleep {
		return false
	}
	slot := d.snaps.nextSlot()
	d.snaps.invalidate(slot)
	payload := d.capture(kind)
	d.Stats.SavesStarted++
	d.setMode(ModeSaving)
	d.busyCyclesLeft = float64(len(payload)+trailerLen) * d.P.SaveCyclesPerByte
	d.onBusyDone = func() {
		d.snaps.write(slot, payload)
		d.Stats.SavesDone++
		d.setMode(ModeActive)
		if onDone != nil {
			onDone()
		}
	}
	return true
}

// BeginRestore starts an asynchronous restore of the newest valid
// snapshot. Returns false (and leaves the device state untouched) if no
// valid snapshot exists or the device cannot restore right now. On
// completion the volatile state is applied and execution resumes where the
// snapshot was taken; onDone (if non-nil) runs first.
func (d *Device) BeginRestore(onDone func()) bool {
	if d.mode != ModeActive && d.mode != ModeSleep {
		return false
	}
	payload, _ := d.snaps.newest()
	if payload == nil {
		return false
	}
	d.setMode(ModeRestoring)
	d.busyCyclesLeft = float64(len(payload)+trailerLen) * d.P.RestoreCyclesPerByte
	d.onBusyDone = func() {
		d.applySnapshot(payload)
		d.Stats.Restores++
		d.setMode(ModeActive)
		if onDone != nil {
			onDone()
		}
	}
	return true
}
