package mcu

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/programs"
)

// buildDevice assembles a workload and returns a device plus a counter of
// completed iterations wired to SysDone.
func buildDevice(t *testing.T, w *programs.Workload, p Params) (*Device, *int) {
	t.Helper()
	prog, err := isa.Assemble(w.Source)
	if err != nil {
		t.Fatalf("assemble %s: %v", w.Name, err)
	}
	d := New(p, prog)
	done := new(int)
	expected := w.Expected
	d.SysHandler = func(code uint16, c *isa.Core) {
		if code == programs.SysDone {
			if c.R[1] != expected {
				t.Errorf("%s completed with result 0x%04x, want 0x%04x", w.Name, c.R[1], expected)
			}
			*done++
		}
	}
	return d, done
}

// tickUntil drives the device at voltage v until pred is true or the time
// budget elapses, returning the elapsed simulated seconds.
func tickUntil(d *Device, v, dt, budget float64, pred func() bool) float64 {
	elapsed := 0.0
	for elapsed < budget && !pred() {
		d.Tick(v, dt)
		elapsed += dt
	}
	return elapsed
}

func TestBusMappingAndOpenBus(t *testing.T) {
	b := NewBus()
	b.Write8(0x0010, 0xAB)
	if b.Read8(0x0010) != 0xAB {
		t.Error("SRAM write lost")
	}
	b.Write16(0x4100, 0xBEEF)
	if b.Read16(0x4100) != 0xBEEF {
		t.Error("FRAM write lost")
	}
	// Unmapped hole: reads zero, writes dropped.
	b.Write8(0x2000, 0xFF)
	if b.Read8(0x2000) != 0 {
		t.Error("open bus should read 0")
	}
}

func TestBusWaitStates(t *testing.T) {
	b := NewBus()
	if b.AccessCycles(0x0000, false) != 0 {
		t.Error("SRAM should be zero-wait")
	}
	if b.AccessCycles(0x4000, false) != 0 {
		t.Error("FRAM at low clock should be zero-wait")
	}
	b.FRAMWait = 1
	if b.AccessCycles(0x4000, true) != 1 {
		t.Error("FRAM wait state not applied")
	}
	if b.AccessCycles(0x0000, true) != 0 {
		t.Error("SRAM must never pay FRAM waits")
	}
}

func TestScrambleSRAMDestroysContents(t *testing.T) {
	b := NewBus()
	for i := 0; i < 64; i++ {
		b.SRAM[i] = byte(i)
	}
	b.ScrambleSRAM(1)
	intact := 0
	for i := 0; i < 64; i++ {
		if b.SRAM[i] == byte(i) {
			intact++
		}
	}
	if intact > 8 {
		t.Errorf("%d/64 bytes survived scrambling", intact)
	}
}

func TestDevicePowersOnAndRuns(t *testing.T) {
	d, done := buildDevice(t, programs.Fib(24, programs.DefaultLayout()), DefaultParams())
	if d.Mode() != ModeOff {
		t.Fatal("device should start off")
	}
	tickUntil(d, 3.3, 10e-6, 1.0, func() bool { return *done >= 1 })
	if *done < 1 {
		t.Fatal("workload never completed under stable power")
	}
	if d.Stats.PowerOns != 1 || d.Stats.ColdStarts != 1 {
		t.Errorf("stats = %+v, want one power-on cold start", d.Stats)
	}
	if d.Err != nil {
		t.Errorf("guest fault: %v", d.Err)
	}
}

func TestDeviceBelowVOnStaysOff(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(10, programs.DefaultLayout()), DefaultParams())
	tickUntil(d, 1.5, 10e-6, 0.01, func() bool { return false })
	if d.Mode() != ModeOff || d.Stats.PowerOns != 0 {
		t.Error("device must stay off below VOn")
	}
}

func TestBrownOutLosesProgress(t *testing.T) {
	// Run a long FFT, cut power mid-way, restore power: without a runtime
	// the guest restarts from scratch (cold start), and completes later
	// than it would have.
	w := programs.FFT(256, programs.DefaultLayout())
	d, done := buildDevice(t, w, DefaultParams())
	// Let it run briefly, then cut power.
	tickUntil(d, 3.3, 10e-6, 0.005, func() bool { return false })
	if d.Stats.CyclesRun == 0 {
		t.Fatal("no execution before outage")
	}
	if *done != 0 {
		t.Fatal("workload finished before the planned outage; lengthen it")
	}
	tickUntil(d, 0.0, 10e-6, 0.001, func() bool { return false })
	if d.Mode() != ModeOff || d.Stats.BrownOuts != 1 {
		t.Fatalf("expected brown-out, mode=%v stats=%+v", d.Mode(), d.Stats)
	}
	// Power returns: cold start again.
	tickUntil(d, 3.3, 10e-6, 1.0, func() bool { return *done >= 1 })
	if *done < 1 {
		t.Fatal("guest did not complete after restart")
	}
	if d.Stats.ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2", d.Stats.ColdStarts)
	}
}

func TestSnapshotSaveRestoreExactness(t *testing.T) {
	// Save mid-computation, let it finish, brown out, restore the
	// snapshot: execution resumes from the snapshot point and still
	// produces the correct result.
	w := programs.CRC16(64, programs.DefaultLayout())
	d, done := buildDevice(t, w, DefaultParams())
	tickUntil(d, 3.3, 10e-6, 0.002, func() bool { return false })

	if !d.BeginSave(SnapFull, nil) {
		t.Fatal("BeginSave refused")
	}
	if d.Mode() != ModeSaving {
		t.Fatal("device should be saving")
	}
	saved := false
	tickUntil(d, 3.3, 10e-6, 0.1, func() bool { return d.Mode() == ModeActive })
	if d.Stats.SavesDone != 1 {
		t.Fatalf("save did not complete: %+v", d.Stats)
	}
	saved = d.HasSnapshot()
	if !saved {
		t.Fatal("no valid snapshot after save")
	}

	// Brown out: volatile state destroyed.
	tickUntil(d, 0, 10e-6, 0.001, func() bool { return false })
	if d.Stats.BrownOuts != 1 {
		t.Fatal("expected brown-out")
	}
	// Power on and restore manually (no runtime attached).
	tickUntil(d, 3.3, 10e-6, 0.0001, func() bool { return d.Mode() == ModeActive })
	if !d.BeginRestore(nil) {
		t.Fatal("BeginRestore refused")
	}
	tickUntil(d, 3.3, 10e-6, 0.1, func() bool { return d.Mode() == ModeActive })
	if d.Stats.Restores != 1 {
		t.Fatalf("restore did not complete: %+v", d.Stats)
	}
	// Must now run to a CORRECT completion from the snapshot point.
	tickUntil(d, 3.3, 10e-6, 1.0, func() bool { return *done >= 1 })
	if *done < 1 {
		t.Fatal("restored execution never completed")
	}
}

func TestInterruptedSaveKeepsPreviousSnapshot(t *testing.T) {
	w := programs.Fib(30, programs.DefaultLayout())
	d, _ := buildDevice(t, w, DefaultParams())
	tickUntil(d, 3.3, 10e-6, 0.001, func() bool { return false })
	// First complete save.
	d.BeginSave(SnapFull, nil)
	tickUntil(d, 3.3, 10e-6, 0.1, func() bool { return d.Mode() == ModeActive })
	if !d.HasSnapshot() {
		t.Fatal("first snapshot missing")
	}
	// Second save interrupted by power failure mid-DMA.
	tickUntil(d, 3.3, 10e-6, 0.001, func() bool { return false })
	d.BeginSave(SnapFull, nil)
	d.Tick(3.3, 10e-6) // a little progress, not enough to finish
	tickUntil(d, 0, 10e-6, 0.001, func() bool { return false })
	if d.Stats.SavesAborted != 1 {
		t.Fatalf("expected aborted save, stats=%+v", d.Stats)
	}
	// The first snapshot must still be valid (double buffering).
	if !d.HasSnapshot() {
		t.Fatal("interrupted save destroyed the previous snapshot")
	}
}

func TestRestoreWithoutSnapshotFails(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	tickUntil(d, 3.3, 10e-6, 0.0001, func() bool { return d.Mode() == ModeActive })
	if d.BeginRestore(nil) {
		t.Fatal("restore should fail with no snapshot")
	}
	if d.Mode() != ModeActive {
		t.Error("failed restore must not change mode")
	}
}

func TestSleepWakePath(t *testing.T) {
	d, done := buildDevice(t, programs.Fib(24, programs.DefaultLayout()), DefaultParams())
	tickUntil(d, 3.3, 10e-6, 0.0002, func() bool { return d.Mode() == ModeActive })
	d.Sleep()
	if d.Mode() != ModeSleep {
		t.Fatal("sleep failed")
	}
	before := d.Stats.CyclesRun
	tickUntil(d, 3.3, 10e-6, 0.01, func() bool { return false })
	if d.Stats.CyclesRun != before {
		t.Error("device executed while asleep")
	}
	d.Wake()
	if d.Mode() != ModeActive || d.Stats.WakeNoRestore != 1 {
		t.Error("wake failed")
	}
	tickUntil(d, 3.3, 10e-6, 1.0, func() bool { return *done >= 1 })
	if *done < 1 {
		t.Error("no completion after wake")
	}
}

// TestLongestOnStretch checks the on-stretch booking at mode
// transitions: a brown-out and a sleep each end a stretch, power-on and
// wake each start one, and FinalStats closes a stretch still open. The
// step is a power of two, so every expected length is exact.
func TestLongestOnStretch(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	const dt = 1.0 / 1024
	ticks := func(n int, v float64) {
		for i := 0; i < n; i++ {
			d.Tick(v, dt)
		}
	}
	ticks(10, 3.0) // powers on at the first tick: on from 1·dt
	ticks(6, 1.0)  // browns out at 11·dt, then stays off
	ticks(4, 3.0)  // powers on at 17·dt
	d.Sleep()      // at 20·dt
	ticks(2, 3.0)
	d.Wake() // at 22·dt
	ticks(3, 3.0)
	if got := d.FinalStats().LongestOnSec; got != 10*dt {
		t.Errorf("longest on-stretch %g s, want the 10-step stretch before the brown-out (%g s)", got, 10*dt)
	}
	ticks(20, 3.0)
	if got := d.Stats.LongestOnSec; got != 10*dt {
		t.Errorf("booked on-stretch %g s, want %g s: an open stretch is booked only when it ends", got, 10*dt)
	}
	if got := d.FinalStats().LongestOnSec; got != 23*dt {
		t.Errorf("final longest on-stretch %g s, want the open stretch since the wake (%g s)", got, 23*dt)
	}
}

func TestCurrentModel(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	// Off.
	if got := d.Current(3.3, 0); got != d.P.IOff {
		t.Errorf("off current = %g", got)
	}
	if d.Current(0, 0) != 0 {
		t.Error("zero rail voltage draws nothing")
	}
	tickUntil(d, 3.3, 10e-6, 0.0002, func() bool { return d.Mode() == ModeActive })
	// Active at 8 MHz: base + slope·8.
	want := d.P.IActiveBase + d.P.IActivePerMHz*8
	if got := d.Current(3.3, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("active current = %g, want %g", got, want)
	}
	d.Sleep()
	if got := d.Current(3.3, 0); got != d.P.ISleep {
		t.Errorf("sleep current = %g", got)
	}
	d.Wake()
	d.BeginSave(SnapFull, nil)
	if got := d.Current(3.3, 0); math.Abs(got-(want+d.P.ISaveExtra)) > 1e-12 {
		t.Errorf("saving current = %g", got)
	}
}

func TestUnifiedNVCurrentPenalty(t *testing.T) {
	sram, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	fram, _ := buildDevice(t, programs.Fib(5, programs.UnifiedNVLayout()), UnifiedNVParams())
	tickUntil(sram, 3.3, 10e-6, 0.0002, func() bool { return sram.Mode() == ModeActive })
	tickUntil(fram, 3.3, 10e-6, 0.0002, func() bool { return fram.Mode() == ModeActive })
	diff := fram.Current(3.3, 0) - sram.Current(3.3, 0)
	if math.Abs(diff-fram.P.IFRAMExtra) > 1e-12 {
		t.Errorf("FRAM quiescent penalty = %g, want %g", diff, fram.P.IFRAMExtra)
	}
}

func TestDFSAffectsSpeedAndWaitStates(t *testing.T) {
	p := DefaultParams()
	w := programs.Fib(24, programs.DefaultLayout())
	run := func(freqIdx int) float64 {
		pp := p
		pp.FreqIndex = freqIdx
		d, done := buildDevice(t, w, pp)
		return tickUntil(d, 3.3, 10e-6, 1.0, func() bool { return *done >= 1 })
	}
	tSlow := run(0) // 1 MHz
	tFast := run(3) // 8 MHz
	if tFast >= tSlow {
		t.Errorf("8 MHz (%gs) not faster than 1 MHz (%gs)", tFast, tSlow)
	}
	// Wait states engage above 8 MHz.
	d, _ := buildDevice(t, w, p)
	d.SetFreqIndex(5) // 24 MHz
	if d.Bus.FRAMWait == 0 {
		t.Error("FRAM wait states should engage at 24 MHz")
	}
	d.SetFreqIndex(2) // 4 MHz
	if d.Bus.FRAMWait != 0 {
		t.Error("FRAM wait states should disengage at 4 MHz")
	}
	// Clamping.
	d.SetFreqIndex(99)
	if d.FreqIndex() != len(p.FreqLevels)-1 {
		t.Error("freq index should clamp high")
	}
	d.SetFreqIndex(-5)
	if d.FreqIndex() != 0 {
		t.Error("freq index should clamp low")
	}
}

func TestSnapshotSizesAndEstimates(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	full := d.SnapshotBytes(SnapFull)
	regs := d.SnapshotBytes(SnapRegs)
	if full <= regs {
		t.Errorf("full snapshot (%d B) must exceed regs-only (%d B)", full, regs)
	}
	if regs >= 100 {
		t.Errorf("regs snapshot suspiciously large: %d B", regs)
	}
	if full < len(d.Bus.SRAM) {
		t.Errorf("full snapshot (%d B) smaller than SRAM (%d B)", full, len(d.Bus.SRAM))
	}
	// Energy estimate (eq. 4's E_s) scales with size and is positive.
	eFull := d.EstimateSnapshotEnergy(3.0, SnapFull)
	eRegs := d.EstimateSnapshotEnergy(3.0, SnapRegs)
	if eFull <= eRegs || eRegs <= 0 {
		t.Errorf("snapshot energies: full=%g regs=%g", eFull, eRegs)
	}
	// An outage adds the restore to the snapshot. On the default map
	// without peripheral state, the device-free price starts from the
	// device's own snapshot estimate.
	p := DefaultParams()
	for _, kind := range []SnapshotKind{SnapFull, SnapRegs} {
		if out, save := p.OutageEnergy(3.0, kind), d.EstimateSnapshotEnergy(3.0, kind); !(out > save) {
			t.Errorf("kind %d: outage energy %g must exceed the snapshot alone (%g)", kind, out, save)
		}
	}
	if p.OutageEnergy(3.0, SnapFull) <= p.OutageEnergy(3.0, SnapRegs) {
		t.Error("a full outage must cost more than a registers-only one")
	}
}

func TestDefaultSnapshotKind(t *testing.T) {
	sram, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	fram, _ := buildDevice(t, programs.Fib(5, programs.UnifiedNVLayout()), UnifiedNVParams())
	if sram.DefaultSnapshotKind() != SnapFull {
		t.Error("split-memory device should default to full snapshots")
	}
	if fram.DefaultSnapshotKind() != SnapRegs {
		t.Error("unified-NV device should default to register snapshots")
	}
}

func TestRuntimeCallbacks(t *testing.T) {
	w := programs.CRC16(32, programs.DefaultLayout())
	d, _ := buildDevice(t, w, DefaultParams())
	rt := &recordingRuntime{}
	d.Attach(rt)
	if d.Runtime() != rt {
		t.Fatal("runtime not attached")
	}
	tickUntil(d, 3.3, 10e-6, 0.01, func() bool { return rt.traps > 3 })
	if rt.powerOns != 1 {
		t.Errorf("OnPowerOn calls = %d, want 1", rt.powerOns)
	}
	if rt.ticks == 0 {
		t.Error("OnTick never called")
	}
	if rt.traps == 0 {
		t.Error("OnCheckpointTrap never called (CRC has CHK sites)")
	}
}

// recordingRuntime counts callbacks and cold-starts on power-on.
type recordingRuntime struct {
	powerOns, ticks, traps int
}

func (r *recordingRuntime) OnPowerOn(d *Device) {
	r.powerOns++
	d.ColdStart()
}
func (r *recordingRuntime) OnTick(*Device, float64) { r.ticks++ }
func (r *recordingRuntime) OnCheckpointTrap(*Device) {
	r.traps++
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	// capture→write→read→apply must reproduce registers and SRAM exactly.
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	core := d.Core
	for trial := 0; trial < 50; trial++ {
		for i := range core.R {
			core.R[i] = uint16(trial*31 + i*7)
		}
		core.PC = uint16(0x4000 + trial)
		core.HI = uint16(trial * 3)
		core.ZF = trial%2 == 0
		core.NF = trial%3 == 0
		core.CF = trial%5 == 0
		core.GE = trial%7 == 0
		for i := range d.Bus.SRAM {
			d.Bus.SRAM[i] = byte(i * trial)
		}
		payload := d.capture(SnapFull)
		d.snaps.write(trial%2, payload)

		// Destroy state.
		wantR := core.R
		wantPC, wantHI := core.PC, core.HI
		wantZ, wantN, wantC, wantGE := core.ZF, core.NF, core.CF, core.GE
		wantSRAM := make([]byte, len(d.Bus.SRAM))
		copy(wantSRAM, d.Bus.SRAM)
		core.Reset(0)
		d.Bus.ScrambleSRAM(uint32(trial))

		got, _ := d.snaps.newest()
		if got == nil {
			t.Fatal("snapshot vanished")
		}
		d.applySnapshot(got)
		if core.R != wantR || core.PC != wantPC || core.HI != wantHI {
			t.Fatalf("trial %d: register state mismatch", trial)
		}
		if core.ZF != wantZ || core.NF != wantN || core.CF != wantC || core.GE != wantGE {
			t.Fatalf("trial %d: flag state mismatch", trial)
		}
		for i := range wantSRAM {
			if d.Bus.SRAM[i] != wantSRAM[i] {
				t.Fatalf("trial %d: SRAM[%d] mismatch", trial, i)
			}
		}
	}
}

func TestSnapshotSequencePicksNewest(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	core := d.Core
	core.R[1] = 111
	d.snaps.write(0, d.capture(SnapRegs))
	core.R[1] = 222
	d.snaps.write(1, d.capture(SnapRegs))
	payload, next := d.snaps.newest()
	if payload == nil || next != 0 {
		t.Fatalf("newest slot wrong: next=%d", next)
	}
	core.Reset(0)
	d.applySnapshot(payload)
	if core.R[1] != 222 {
		t.Errorf("restored r1 = %d, want 222 (newest)", core.R[1])
	}
}

func TestCorruptedSnapshotRejected(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	d.snaps.write(0, d.capture(SnapRegs))
	if !d.HasSnapshot() {
		t.Fatal("snapshot missing")
	}
	// Flip a payload byte: checksum must catch it.
	addr := d.snaps.slotAddr(0) + headerLen + 3
	d.Bus.Write8(addr, d.Bus.Read8(addr)^0xff)
	if d.HasSnapshot() {
		t.Error("corrupted snapshot accepted")
	}
}

func TestRestoreFallsBackToOlderSlot(t *testing.T) {
	// Corrupt the NEWER of two committed snapshots: restore must fall back
	// to the older one rather than fail or apply garbage.
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	tickUntil(d, 3.3, 10e-6, 0.001, func() bool { return d.Mode() == ModeActive })
	d.Core.R[2] = 0x1111
	d.snaps.write(0, d.capture(SnapRegs)) // seq 1 (older)
	d.Core.R[2] = 0x2222
	d.snaps.write(1, d.capture(SnapRegs)) // seq 2 (newer)
	// Corrupt slot 1's payload.
	addr := d.snaps.slotAddr(1) + headerLen + 5
	d.Bus.Write8(addr, d.Bus.Read8(addr)^0xff)
	payload, _ := d.snaps.newest()
	if payload == nil {
		t.Fatal("no snapshot survived")
	}
	d.Core.Reset(0)
	d.applySnapshot(payload)
	if d.Core.R[2] != 0x1111 {
		t.Errorf("restored r2 = 0x%04x, want the older slot's 0x1111", d.Core.R[2])
	}
}

func TestAuxSnapshotRoundTrip(t *testing.T) {
	// A device with aux state enabled must restore it exactly.
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	aux := &fakeAux{state: []byte{1, 2, 3, 4}}
	d.Aux = aux
	d.SnapshotAux = true
	tickUntil(d, 3.3, 10e-6, 0.001, func() bool { return d.Mode() == ModeActive })
	d.snaps.write(0, d.capture(SnapFull))
	aux.state = []byte{9, 9, 9, 9}
	payload, _ := d.snaps.newest()
	d.applySnapshot(payload)
	if string(aux.state) != string([]byte{1, 2, 3, 4}) {
		t.Errorf("aux state not restored: %v", aux.state)
	}
	// With SnapshotAux disabled, aux bytes are excluded.
	d.SnapshotAux = false
	if n := d.SnapshotBytes(SnapRegs); n != headerLen+regBytes+trailerLen {
		t.Errorf("naive regs snapshot = %d bytes", n)
	}
	d.SnapshotAux = true
	if n := d.SnapshotBytes(SnapRegs); n != headerLen+regBytes+4+trailerLen {
		t.Errorf("aware regs snapshot = %d bytes", n)
	}
}

func TestBrownOutResetsAux(t *testing.T) {
	d, _ := buildDevice(t, programs.Fib(5, programs.DefaultLayout()), DefaultParams())
	aux := &fakeAux{state: []byte{5}}
	d.Aux = aux
	tickUntil(d, 3.3, 10e-6, 0.001, func() bool { return d.Mode() == ModeActive })
	tickUntil(d, 0, 10e-6, 0.001, func() bool { return false })
	if !aux.wasReset {
		t.Error("brown-out must reset aux (peripheral) state")
	}
}

// fakeAux is a minimal AuxState for device tests.
type fakeAux struct {
	state    []byte
	wasReset bool
}

func (f *fakeAux) Capture() []byte { out := make([]byte, len(f.state)); copy(out, f.state); return out }
func (f *fakeAux) Restore(d []byte) error {
	f.state = append([]byte(nil), d...)
	return nil
}
func (f *fakeAux) Reset() { f.wasReset = true; f.state = []byte{0} }
