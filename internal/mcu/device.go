package mcu

import (
	"fmt"

	"repro/internal/isa"
)

// Mode is the device power/activity state.
type Mode int

// Device modes.
const (
	ModeOff       Mode = iota // unpowered; volatile state lost
	ModeActive                // executing instructions
	ModeSleep                 // retention sleep (LPM): state held, no execution
	ModeSaving                // snapshot DMA to NVM in progress
	ModeRestoring             // snapshot DMA from NVM in progress
)

// executing reports whether the mode belongs to an on-stretch.
func (m Mode) executing() bool { return m != ModeOff && m != ModeSleep }

// Params is the device's electrical and architectural configuration. The
// defaults are MSP430FR-flavoured: a low-power 16-bit MCU with DFS levels
// from 1–24 MHz, microamp sleep currents, and FRAM wait states above 8 MHz.
type Params struct {
	FreqLevels []float64 // selectable core frequencies, Hz (ascending)
	FreqIndex  int       // initial DFS level index

	VOn  float64 // power-on-reset threshold (rising)
	VOff float64 // brown-out threshold (falling)

	// Current model (amperes). Active draw is IActiveBase +
	// IActivePerMHz·f(MHz), plus IFRAMExtra when running with unified
	// (always-on) FRAM data memory, the QuickRecall configuration.
	IActiveBase   float64
	IActivePerMHz float64
	ISleep        float64
	IOff          float64
	ISaveExtra    float64 // added to active draw during snapshot writes
	IRestoreExtra float64
	IFRAMExtra    float64

	// Snapshot DMA costs, cycles per byte moved.
	SaveCyclesPerByte    float64
	RestoreCyclesPerByte float64

	// FRAM wait states: accesses pay FRAMWaitCycles when the core clock
	// exceeds FRAMWaitAboveHz.
	FRAMWaitAboveHz float64
	FRAMWaitCycles  uint64

	// UnifiedNV marks a QuickRecall-style system: program data lives in
	// FRAM (higher quiescent power) and snapshots cover registers only.
	UnifiedNV bool
}

// DefaultParams returns the split-memory (SRAM working set) configuration.
func DefaultParams() Params {
	return Params{
		FreqLevels:           []float64{1e6, 2e6, 4e6, 8e6, 16e6, 24e6},
		FreqIndex:            3, // 8 MHz
		VOn:                  2.0,
		VOff:                 1.8,
		IActiveBase:          200e-6,
		IActivePerMHz:        150e-6,
		ISleep:               1.5e-6,
		IOff:                 50e-9,
		ISaveExtra:           1.5e-3,
		IRestoreExtra:        0.8e-3,
		IFRAMExtra:           125e-6,
		SaveCyclesPerByte:    2,
		RestoreCyclesPerByte: 1,
		FRAMWaitAboveHz:      8e6,
		FRAMWaitCycles:       1,
	}
}

// UnifiedNVParams returns the QuickRecall-style unified-FRAM configuration.
func UnifiedNVParams() Params {
	p := DefaultParams()
	p.UnifiedNV = true
	return p
}

// Stats counts externally observable events over a run.
type Stats struct {
	PowerOns      int // power-on resets
	BrownOuts     int // volatile-state losses
	ColdStarts    int // boots with no valid snapshot (restart from scratch)
	Restores      int // successful snapshot restores
	SavesStarted  int
	SavesDone     int
	SavesAborted  int // save in progress when power failed
	WakeNoRestore int // slept through a dip and resumed without restore

	ActiveSec  float64
	SleepSec   float64
	SaveSec    float64
	RestoreSec float64
	OffSec     float64

	// LongestOnSec is the longest stretch in active, saving or restoring
	// mode; a brown-out or a sleep ends one (Fig. 8's uninterrupted run).
	LongestOnSec float64

	CyclesRun uint64
}

// AuxState is volatile device state that lives outside the memory map —
// peripheral configuration registers, above all. The paper's discussion
// section calls out exactly this gap: "work to date has primarily focused
// on computation, and not the plethora of peripherals that are typically
// present in embedded systems". A brown-out resets aux state; snapshots
// include it only when SnapshotAux is enabled on the device, which is what
// separates a peripheral-aware runtime from a naive one.
type AuxState interface {
	// Capture serialises the present state.
	Capture() []byte
	// Restore applies a previously captured state. A payload that does
	// not match the implementation's Capture layout must be rejected
	// with an error and leave the state untouched — a half-applied
	// restore is exactly the silent-corruption failure mode snapshots
	// exist to prevent.
	Restore(data []byte) error
	// Reset returns the state to its power-on defaults.
	Reset()
}

// HibernateThresholds is optionally implemented by the hibernus family:
// runtimes that hibernate at V_H and resume at V_R. Reports read both at
// the end of a run, where a self-calibrating runtime has settled.
type HibernateThresholds interface {
	HibernateThresholds() (vh, vr float64)
}

// Runtime is a transient-computing runtime attached to the device: it
// receives power-on, per-tick and checkpoint-trap callbacks, and drives
// snapshots through the device's Begin* methods. Implementations live in
// package transient.
type Runtime interface {
	// OnPowerOn runs after a power-on reset, before any instruction
	// executes. Typical actions: BeginRestore, or Sleep until a restore
	// threshold.
	OnPowerOn(d *Device)
	// OnTick runs every simulation tick while the device is powered.
	OnTick(d *Device, v float64)
	// OnCheckpointTrap runs when the guest executes a CHK instruction.
	OnCheckpointTrap(d *Device)
}

// SleepWaker is optionally implemented by runtimes whose OnTick is a
// guaranteed no-op while the device sleeps below a wake threshold: the
// runtime is only waiting for V_CC to rise to that level (hibernus waiting
// for V_R, for example). Simulation harnesses use it to fast-forward
// sleeping stretches analytically — a runtime that does work while the
// device sleeps must not implement it.
type SleepWaker interface {
	// WakeThreshold returns the voltage below which a sleeping device's
	// OnTick does nothing (+Inf if OnTick never acts on a sleeping device).
	WakeThreshold() float64
}

// ActiveThresholds is optionally implemented by runtimes whose behaviour
// while the device executes is governed purely by rail-voltage
// thresholds. Implementations promise that, in ModeActive:
//
//   - OnTick mutates state only on a tick whose voltage lies on the
//     other side of one of the returned thresholds than the previous
//     tick's voltage did, and is a guaranteed no-op in between; and
//   - OnCheckpointTrap never mutates device or runtime state.
//
// ActiveSettled refines the first promise for hop entry: it reports
// whether OnTick is already a no-op at rail voltages on v's side of
// every threshold (hibernus, for example, is unsettled right after a
// restore completes above V_H, because its first tick re-arms the
// falling-edge detector). Simulation harnesses use the contract to
// execute whole active stretches against a closed-form rail trajectory,
// ending each stretch strictly before a threshold crossing so the
// runtime observes every crossing on its exact step boundary.
type ActiveThresholds interface {
	// ActiveThresholds returns the rail-voltage thresholds governing the
	// runtime's active-mode behaviour.
	ActiveThresholds() []float64
	// ActiveSettled reports whether active-mode OnTick is a guaranteed
	// no-op at voltages on v's side of every threshold.
	ActiveSettled(v float64) bool
}

// Device is the simulated MCU.
type Device struct {
	P    Params
	Core *isa.Core
	Bus  *Bus

	prog  *isa.Program
	entry uint16
	rt    Runtime

	mode    Mode
	now     float64
	lastV   float64
	onSince float64 // when the open on-stretch began (see setMode)

	freq           float64
	cycleRemainder float64

	// busy DMA state (ModeSaving / ModeRestoring)
	busyCyclesLeft float64
	onBusyDone     func()

	snaps    *snapshotStore
	scramble uint32

	// Aux is volatile out-of-memory state (peripheral registers); nil if
	// the device has none. SnapshotAux controls whether snapshots cover
	// it — the peripheral-awareness switch.
	Aux         AuxState
	SnapshotAux bool

	Stats Stats
	Err   error // first guest execution error, if any

	// SysHandler receives guest SYS traps (set by the harness before
	// Attach so workload completions can be counted).
	SysHandler func(code uint16, c *isa.Core)
}

// New builds a device from params and a program image. The image is loaded
// into the bus once; the non-volatile part survives power cycles, while
// any part the program keeps in SRAM must be re-initialised by the guest
// after a cold start (the workloads in package programs do this).
func New(p Params, prog *isa.Program) *Device {
	if len(p.FreqLevels) == 0 {
		p.FreqLevels = DefaultParams().FreqLevels
	}
	if p.FreqIndex < 0 || p.FreqIndex >= len(p.FreqLevels) {
		p.FreqIndex = len(p.FreqLevels) - 1
	}
	d := &Device{
		P:     p,
		Bus:   NewBus(),
		prog:  prog,
		entry: prog.Entry,
		mode:  ModeOff,
	}
	d.Core = &isa.Core{Bus: d.Bus}
	d.Core.Sys = func(code uint16, c *isa.Core) {
		if d.SysHandler != nil {
			d.SysHandler(code, c)
		}
	}
	d.Core.Checkpoint = func(*isa.Core) {
		if d.rt != nil {
			d.rt.OnCheckpointTrap(d)
		}
	}
	prog.LoadInto(d.Bus)
	d.snaps = newSnapshotStore(d.Bus, DefaultSnapBase)
	d.setFreq(p.FreqIndex)
	return d
}

// Attach installs a transient runtime. Pass nil for a bare device (the
// "unprotected" baseline that loses all progress on every outage).
func (d *Device) Attach(rt Runtime) { d.rt = rt }

// Runtime returns the attached runtime, or nil.
func (d *Device) Runtime() Runtime { return d.rt }

// Mode returns the device's present mode.
func (d *Device) Mode() Mode { return d.mode }

// Now returns the device-local time in seconds.
func (d *Device) Now() float64 { return d.now }

// LastV returns the rail voltage seen at the most recent tick — the
// ADC/comparator view runtimes use for threshold decisions.
func (d *Device) LastV() float64 { return d.lastV }

// Freq returns the present core frequency in Hz.
func (d *Device) Freq() float64 { return d.freq }

// FreqIndex returns the present DFS level index.
func (d *Device) FreqIndex() int { return d.P.FreqIndex }

// SetFreqIndex switches the DFS level (clamped to the valid range). This
// is the "hook" power-neutral governors actuate.
func (d *Device) SetFreqIndex(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(d.P.FreqLevels) {
		i = len(d.P.FreqLevels) - 1
	}
	d.setFreq(i)
}

func (d *Device) setFreq(i int) {
	d.P.FreqIndex = i
	d.freq = d.P.FreqLevels[i]
	if d.freq > d.P.FRAMWaitAboveHz {
		d.Bus.FRAMWait = d.P.FRAMWaitCycles
	} else {
		d.Bus.FRAMWait = 0
	}
}

// activeCurrent returns the execution-mode current at the present clock.
func (d *Device) activeCurrent() float64 { return d.P.activeCurrent(d.freq) }

// activeCurrent returns the execution-mode current at clock f.
func (p *Params) activeCurrent(f float64) float64 {
	i := p.IActiveBase + p.IActivePerMHz*(f/1e6)
	if p.UnifiedNV {
		i += p.IFRAMExtra
	}
	return i
}

// ActivePower returns the draw of a device built with p executing at DFS
// level p.FreqIndex on a rail at v volts.
func (p Params) ActivePower(v float64) float64 {
	return p.activeCurrent(p.FreqLevels[p.FreqIndex]) * v
}

// Current implements circuit.Load: the mode-dependent supply draw.
func (d *Device) Current(v, _ float64) float64 {
	if v <= 0 {
		return 0
	}
	switch d.mode {
	case ModeOff:
		return d.P.IOff
	case ModeSleep:
		return d.P.ISleep
	case ModeActive:
		return d.activeCurrent()
	case ModeSaving:
		return d.activeCurrent() + d.P.ISaveExtra
	case ModeRestoring:
		return d.activeCurrent() + d.P.IRestoreExtra
	}
	return 0
}

// Tick advances the device by dt seconds at rail voltage v: handles
// power-on/brown-out transitions, gives the runtime its tick, and executes
// instructions or advances DMA according to mode.
func (d *Device) Tick(v, dt float64) {
	d.now += dt
	d.lastV = v

	if d.mode == ModeOff {
		d.Stats.OffSec += dt
		if v >= d.P.VOn {
			d.powerOn()
		}
		return
	}
	if v < d.P.VOff {
		d.brownOut()
		d.Stats.OffSec += dt
		return
	}

	if d.rt != nil {
		d.rt.OnTick(d, v)
	}

	switch d.mode {
	case ModeActive:
		d.Stats.ActiveSec += dt
		d.executeFor(dt)
	case ModeSleep:
		d.Stats.SleepSec += dt
	case ModeSaving:
		d.Stats.SaveSec += dt
		d.advanceBusy(dt)
	case ModeRestoring:
		d.Stats.RestoreSec += dt
		d.advanceBusy(dt)
	}
}

// AdvanceActive advances an executing device by n steps of dt without
// per-step rail coupling: simulated time, ActiveSec, and the execution
// budget advance step by step exactly as n Tick calls would, but the
// runtime's OnTick is not invoked and LastV is not refreshed. The caller
// (the lab's adaptive stepper) has verified via the ActiveThresholds
// contract that no threshold crossing — brown-out included — can occur
// inside the span, so every skipped OnTick would have been a no-op; it
// must advance the rail by the same count afterwards and publish the
// resulting voltage with NoteRailV. The return value is the number of
// steps actually taken: fewer than n only if the device left ModeActive
// mid-span (a guest fault cannot do this; only a contract breach can).
func (d *Device) AdvanceActive(n int, dt float64) int {
	for k := 0; k < n; k++ {
		if d.mode != ModeActive {
			return k
		}
		d.now += dt
		d.Stats.ActiveSec += dt
		d.executeFor(dt)
	}
	return n
}

// NoteRailV records the rail voltage after an externally advanced active
// stretch, keeping LastV coherent for runtimes and governors without
// re-running the tick's mode machinery.
func (d *Device) NoteRailV(v float64) { d.lastV = v }

// TickSpan advances an off or sleeping device through n steps of dt
// ending at rail voltage v, with the clock and the time-in-mode stats
// accumulated per step so their floating-point rounding matches n
// successive Tick calls bit-for-bit. The caller guarantees no
// mode-changing threshold is crossed inside the span (v and every
// intermediate voltage stay on the quiescent side of V_On / V_Off / the
// runtime's wake threshold); a sleeping runtime's OnTick is invoked
// once, at the end, where the SleepWaker contract makes it a no-op.
func (d *Device) TickSpan(v, dt float64, n int) {
	for k := 0; k < n; k++ {
		d.now += dt
	}
	d.lastV = v
	switch d.mode {
	case ModeOff:
		for k := 0; k < n; k++ {
			d.Stats.OffSec += dt
		}
	case ModeSleep:
		for k := 0; k < n; k++ {
			d.Stats.SleepSec += dt
		}
		if d.rt != nil {
			d.rt.OnTick(d, v)
		}
	}
}

// executeFor runs guest instructions for dt seconds of core time. The
// budget carries a fractional remainder so slow ticks against fast clocks
// stay cycle-exact on average.
func (d *Device) executeFor(dt float64) {
	budget := d.freq*dt + d.cycleRemainder
	// RunBudget replays cached superblocks with per-instruction budget
	// accounting identical to a Step loop; it returns after every SYS/CHK
	// trap so the mode gate below is re-checked exactly where the
	// stepwise loop would have checked it.
	for budget >= 1 && d.mode == ModeActive && !d.Core.Halted {
		rem, spent, err := d.Core.RunBudget(budget)
		budget = rem
		d.Stats.CyclesRun += spent
		if err != nil {
			if d.Err == nil {
				d.Err = fmt.Errorf("mcu: guest fault at t=%.6fs: %w", d.now, err)
			}
			break
		}
	}
	if budget < 0 {
		budget = 0
	}
	if d.mode != ModeActive {
		// A runtime hook switched modes mid-tick; drop the remainder so
		// save/restore timing does not borrow execution budget.
		budget = 0
	}
	if budget >= 1 && (d.Core.Halted || d.Err != nil) {
		budget = 0 // halted cores burn no further cycles
	}
	d.cycleRemainder = budget
}

// advanceBusy progresses an in-flight save/restore DMA.
func (d *Device) advanceBusy(dt float64) {
	d.busyCyclesLeft -= d.freq * dt
	if d.busyCyclesLeft <= 0 {
		done := d.onBusyDone
		d.onBusyDone = nil
		d.busyCyclesLeft = 0
		if done != nil {
			done()
		}
	}
}

// brownOut destroys volatile state and powers the device down.
func (d *Device) brownOut() {
	if d.mode == ModeSaving {
		d.Stats.SavesAborted++
		// The in-flight slot was invalidated at BeginSave time; the
		// partial write simply never commits.
	}
	d.Stats.BrownOuts++
	d.scramble++
	d.Bus.ScrambleSRAM(d.scramble*2654435761 + 0x9e37)
	d.Core.Reset(d.entry)
	d.Core.R[1] = 0xdead // registers are garbage after power loss
	if d.Aux != nil {
		d.Aux.Reset() // peripheral registers are just as volatile
	}
	d.setMode(ModeOff)
	d.busyCyclesLeft = 0
	d.onBusyDone = nil
	d.cycleRemainder = 0
}

// powerOn performs a power-on reset and hands control to the runtime.
func (d *Device) powerOn() {
	d.Stats.PowerOns++
	d.Core.Reset(d.entry)
	d.setMode(ModeActive)
	d.cycleRemainder = 0
	if d.rt != nil {
		d.rt.OnPowerOn(d)
	} else {
		d.Stats.ColdStarts++
	}
}

// ColdStart restarts the guest from its entry point, abandoning any saved
// state. Runtimes call this when no valid snapshot exists.
func (d *Device) ColdStart() {
	d.Core.Reset(d.entry)
	d.setMode(ModeActive)
	d.cycleRemainder = 0
	d.Stats.ColdStarts++
}

// Sleep puts the device into retention sleep (state held, ~µA draw).
func (d *Device) Sleep() {
	if d.mode == ModeActive || d.mode == ModeSleep {
		d.setMode(ModeSleep)
	}
}

// Wake resumes execution from retention sleep without a restore — the
// hibernus fast path when the supply recovered before a brown-out.
func (d *Device) Wake() {
	if d.mode == ModeSleep {
		d.setMode(ModeActive)
		d.Stats.WakeNoRestore++
	}
}

// setMode switches the device's mode, opening or closing an on-stretch
// (Mode.executing) when the switch crosses one: LongestOnSec is booked
// at transitions, never per step. Transitions happen inside a tick after
// the clock advanced, so a stretch runs from the tick that began it to
// the tick that ended it.
func (d *Device) setMode(m Mode) {
	if on := m.executing(); on != d.mode.executing() {
		if on {
			d.onSince = d.now
		} else {
			d.Stats.LongestOnSec = max(d.Stats.LongestOnSec, d.now-d.onSince)
		}
	}
	d.mode = m
}

// FinalStats returns the stats with an on-stretch still open closed at
// the present instant, so LongestOnSec counts it.
func (d *Device) FinalStats() Stats {
	st := d.Stats
	if d.mode.executing() {
		st.LongestOnSec = max(st.LongestOnSec, d.now-d.onSince)
	}
	return st
}
