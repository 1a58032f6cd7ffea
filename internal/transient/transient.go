// Package transient implements the checkpointing runtimes the paper
// surveys and builds on (§II.B, §III): Hibernus, Hibernus++, Mementos,
// QuickRecall, and an NVP-style hardware-backup model. All of them attach
// to a simulated mcu.Device and manipulate genuine machine state through
// the device's snapshot engine, so their relative costs — snapshot count,
// saved bytes, re-executed cycles, quiescent power — emerge from the
// simulation rather than being asserted.
//
// The shared contract (mcu.Runtime):
//
//   - OnPowerOn runs after a power-on reset and decides between restoring
//     a snapshot and cold-starting the application.
//   - OnTick observes V_CC each simulation step — the voltage-interrupt
//     mechanism of hibernus/QuickRecall.
//   - OnCheckpointTrap runs at CHK instructions — the compile-time
//     checkpoint sites Mementos instruments.
package transient

import (
	"math"

	"repro/internal/mcu"
	"repro/internal/units"
)

// Hibernus is the paper's §III runtime [9]: an interrupt-driven scheme
// that snapshots all volatile state to NVM exactly once per supply
// failure, when V_CC falls below the hibernate threshold V_H, and restores
// (or simply wakes) when V_CC recovers above the restore threshold V_R.
//
// V_H is chosen from eq. (4): E_s ≤ (V_H² − V_min²)·C/2, where E_s is the
// snapshot energy and C the rail capacitance — a design-time calibration
// against the platform. V_R is a design-time calibration against the
// energy source.
type Hibernus struct {
	VH, VR float64
	Kind   mcu.SnapshotKind

	wasAboveVH     bool
	pendingRestore bool
	pendingStart   bool
}

// NewHibernus calibrates a Hibernus runtime for a device on a rail of
// capacitance c farads: V_H from eq. (4) with the given guard margin
// (e.g. 1.1 for +10 %), V_R = V_H + vrHeadroom.
func NewHibernus(d *mcu.Device, c, margin, vrHeadroom float64) *Hibernus {
	kind := d.DefaultSnapshotKind()
	es := d.EstimateSnapshotEnergy(3.0, kind)
	vh := units.HibernateThreshold(es, c, d.P.VOff) * margin
	return &Hibernus{VH: vh, VR: vh + vrHeadroom, Kind: kind}
}

// OnPowerOn implements mcu.Runtime: wait (asleep) until V_CC reaches V_R,
// then restore the snapshot if one exists, else start the application.
func (h *Hibernus) OnPowerOn(d *mcu.Device) {
	h.wasAboveVH = false
	if d.HasSnapshot() {
		h.pendingRestore = true
	} else {
		h.pendingStart = true
	}
	d.Sleep()
}

// OnTick implements mcu.Runtime.
func (h *Hibernus) OnTick(d *mcu.Device, v float64) {
	switch d.Mode() {
	case mcu.ModeActive:
		if h.wasAboveVH && v <= h.VH {
			// Falling V_H crossing: hibernate. Exactly one snapshot per
			// supply failure.
			h.wasAboveVH = false
			d.BeginSave(h.Kind, func() { d.Sleep() })
			return
		}
		if v > h.VH {
			h.wasAboveVH = true
		}
	case mcu.ModeSleep:
		if v < h.VR {
			return
		}
		switch {
		case h.pendingRestore:
			h.pendingRestore = false
			if !d.BeginRestore(nil) {
				d.ColdStart()
			}
		case h.pendingStart:
			h.pendingStart = false
			d.ColdStart()
		default:
			// Slept through a dip without losing power: resume directly,
			// skipping the restore entirely — hibernus' efficiency win
			// over reboot-based schemes.
			d.Wake()
		}
	}
}

// OnCheckpointTrap implements mcu.Runtime: hibernus ignores compile-time
// checkpoint sites.
func (h *Hibernus) OnCheckpointTrap(*mcu.Device) {}

// HibernateThresholds implements mcu.HibernateThresholds.
func (h *Hibernus) HibernateThresholds() (vh, vr float64) { return h.VH, h.VR }

// WakeThreshold implements mcu.SleepWaker: below V_R a sleeping hibernus
// only waits, so idle decay can be fast-forwarded.
func (h *Hibernus) WakeThreshold() float64 { return h.VR }

// ActiveThresholds implements mcu.ActiveThresholds: while executing,
// hibernus reacts only to V_CC crossing V_H — falling triggers the
// hibernate snapshot, rising re-arms the detector — so active stretches
// away from V_H may be advanced analytically. (QuickRecall and NVP
// inherit this: their active-mode logic is exactly hibernus'.)
func (h *Hibernus) ActiveThresholds() []float64 { return []float64{h.VH} }

// ActiveSettled implements mcu.ActiveThresholds: OnTick is a no-op
// exactly when the falling-edge detector already matches which side of
// V_H the voltage is on. Right after a restore completes above V_H the
// detector is still disarmed, and the first tick arms it — that tick
// must run stepwise.
func (h *Hibernus) ActiveSettled(v float64) bool { return h.wasAboveVH == (v > h.VH) }

// QuickRecall [8] is the unified-FRAM variant: program and data memory are
// non-volatile, so a snapshot covers CPU registers only — tiny and fast —
// at the price of FRAM's higher quiescent/active power (the device must be
// configured with UnifiedNVParams). The trigger logic is hibernus-like:
// a V_CC interrupt saves as late as possible.
type QuickRecall struct {
	Hibernus
}

// NewQuickRecall calibrates a QuickRecall runtime: same eq. (4) threshold
// machinery, but with the registers-only snapshot cost.
func NewQuickRecall(d *mcu.Device, c, margin, vrHeadroom float64) *QuickRecall {
	es := d.EstimateSnapshotEnergy(3.0, mcu.SnapRegs)
	vh := units.HibernateThreshold(es, c, d.P.VOff) * margin
	return &QuickRecall{Hibernus{VH: vh, VR: vh + vrHeadroom, Kind: mcu.SnapRegs}}
}

// NVP models a non-volatile-processor architecture [10]: every flip-flop
// has a parallel NV shadow cell, so backup is a near-instant hardware
// broadcast rather than a software copy loop. It behaves like an
// aggressive QuickRecall with an even later threshold; the architectural
// price (larger, higher-power flip-flops) is modelled in the device
// parameters, not here.
type NVP struct {
	Hibernus
}

// NewNVP builds an NVP runtime for a device (which should use NVPParams-
// style extra active current to reflect the NV flip-flop overhead).
func NewNVP(d *mcu.Device, c, margin, vrHeadroom float64) *NVP {
	es := d.EstimateSnapshotEnergy(3.0, mcu.SnapRegs)
	vh := units.HibernateThreshold(es, c, d.P.VOff) * margin
	return &NVP{Hibernus{VH: vh, VR: vh + vrHeadroom, Kind: mcu.SnapRegs}}
}

// Mementos [7] places checkpoints at compile time (loop latches and
// function boundaries — the CHK sites in the guest programs) and, at each
// site, snapshots if V_CC is below a fixed threshold. The paper lists its
// three structural downsides, all of which this implementation exhibits:
//
//  1. redundant snapshots — every checkpoint below threshold saves, even
//     when the supply recovers without failing;
//  2. a snapshot may start too late and be cut off by the outage (the
//     device's double buffering keeps the previous one intact);
//  3. code executed since the last snapshot is re-executed after restore.
type Mementos struct {
	VCheck float64 // snapshot when V_CC < VCheck at a checkpoint site
	Kind   mcu.SnapshotKind
}

// NewMementos returns a Mementos runtime with the given voltage-check
// threshold.
func NewMementos(d *mcu.Device, vCheck float64) *Mementos {
	return &Mementos{VCheck: vCheck, Kind: d.DefaultSnapshotKind()}
}

// OnPowerOn implements mcu.Runtime: restore immediately if possible
// (Mementos has no source-aware restore gating), else restart from main.
func (m *Mementos) OnPowerOn(d *mcu.Device) {
	if d.HasSnapshot() {
		if d.BeginRestore(nil) {
			return
		}
	}
	d.ColdStart()
}

// OnTick implements mcu.Runtime: Mementos is oblivious to V_CC between
// checkpoints.
func (m *Mementos) OnTick(*mcu.Device, float64) {}

// WakeThreshold implements mcu.SleepWaker: Mementos' OnTick never acts at
// all, so any sleeping stretch may be fast-forwarded.
func (m *Mementos) WakeThreshold() float64 { return math.Inf(1) }

// OnCheckpointTrap implements mcu.Runtime: the compiled-in trampoline.
func (m *Mementos) OnCheckpointTrap(d *mcu.Device) {
	if d.Mode() != mcu.ModeActive {
		return
	}
	if d.LastV() < m.VCheck {
		d.BeginSave(m.Kind, nil) // continues executing after the save
	}
}

// HibernusPP is hibernus++ [2]: the self-calibrating extension that learns
// V_H and V_R at run time instead of requiring the design-time
// characterisation of the platform (C) and source.
//
// Calibration runs in both directions:
//
//   - each snapshot completed during a genuine supply dip measures the
//     V_CC drop the save costs, and V_H descends (rate-limited) toward
//     V_min + margin·drop;
//   - each snapshot that was cut off by a brown-out (detected at the next
//     power-on via the device's aborted-save counter) proves V_H was too
//     low, and V_H steps back up.
//
// V_R adapts to the observed supply dynamics: hibernating again within
// milliseconds of a resume means V_R released execution too early, so it
// rises; long productive stints decay it toward V_H. The price of all this
// is the online-characterisation overhead — a conservative initial V_H and
// a first-boot calibration snapshot — matching the paper's "slightly less
// efficient than a manually calibrated hibernus, but robust to unknown
// storage".
type HibernusPP struct {
	VH, VR float64
	Kind   mcu.SnapshotKind

	VMin       float64
	DropMargin float64 // multiplier on the measured save drop (e.g. 1.25)
	DescendCap float64 // max V_H decrease per successful calibration
	RaiseStep  float64 // V_H increase after an aborted save

	Calibrations int

	wasAboveVH     bool
	pendingRestore bool
	pendingStart   bool
	calibrated     bool
	lastResumeT    float64
	lastAborted    int
}

// NewHibernusPP returns a hibernus++ runtime with conservative initial
// thresholds derived only from the device's electrical limits — no
// knowledge of the rail capacitance.
func NewHibernusPP(d *mcu.Device) *HibernusPP {
	vmin := d.P.VOff
	return &HibernusPP{
		// Start very conservative: hibernate high, restore higher.
		VH:         vmin + 1.0,
		VR:         vmin + 1.3,
		Kind:       d.DefaultSnapshotKind(),
		VMin:       vmin,
		DropMargin: 1.25,
		DescendCap: 0.1,
		RaiseStep:  0.15,
	}
}

// OnPowerOn implements mcu.Runtime. An aborted save observed here is the
// failure-feedback half of calibration: the previous V_H did not leave
// enough energy to finish a snapshot, so it steps back up.
func (h *HibernusPP) OnPowerOn(d *mcu.Device) {
	h.wasAboveVH = false
	if d.Stats.SavesAborted > h.lastAborted {
		h.lastAborted = d.Stats.SavesAborted
		h.VH = math.Min(h.VH+h.RaiseStep, h.VMin+1.2)
		if h.VR < h.VH+0.05 {
			h.VR = h.VH + 0.05
		}
		h.Calibrations++
	}
	if d.HasSnapshot() {
		h.pendingRestore = true
	} else {
		h.pendingStart = true
	}
	d.Sleep()
}

// recalibrate folds a measured save drop into the thresholds. Saves
// measured while the supply was rising (non-positive or negligible drop)
// carry no information about the discharge cost and are ignored; valid
// measurements move V_H toward V_min + margin·drop, descending at most
// DescendCap per step so one source-assisted (shallow) measurement cannot
// collapse the threshold below the safe level.
func (h *HibernusPP) recalibrate(drop float64) {
	if drop <= 0.005 {
		return
	}
	h.Calibrations++
	target := math.Max(h.VMin+drop*h.DropMargin, h.VMin+0.05)
	if target < h.VH {
		h.VH = math.Max(target, h.VH-h.DescendCap)
	} else {
		h.VH = math.Min(target, h.VMin+1.2)
	}
	if h.VR < h.VH+0.05 {
		h.VR = h.VH + 0.05
	}
}

// adaptVR nudges the restore threshold from observed behaviour: resuming
// and hibernating again within 5 ms means V_R released us too early. The
// upward excursion is capped at V_H + 0.5 V so a burst of early wakes can
// never push V_R beyond what the source actually reaches.
func (h *HibernusPP) adaptVR(d *mcu.Device) {
	dt := d.Now() - h.lastResumeT
	if h.lastResumeT > 0 && dt < 0.005 {
		h.VR = math.Min(h.VR+0.08, h.VH+0.5)
	} else {
		h.VR = math.Max(h.VR-0.01, h.VH+0.05)
	}
}

// OnTick implements mcu.Runtime.
func (h *HibernusPP) OnTick(d *mcu.Device, v float64) {
	switch d.Mode() {
	case mcu.ModeActive:
		if !h.calibrated {
			// First-boot calibration snapshot: measure the save drop at a
			// safe (high) voltage before trusting any threshold. If the
			// supply happens to be rising during the measurement the drop
			// is meaningless and is discarded — the conservative initial
			// V_H stays in force until a genuine falling-supply save.
			h.calibrated = true
			vStart := v
			d.BeginSave(h.Kind, func() {
				h.recalibrate(vStart - d.LastV())
			})
			return
		}
		if h.wasAboveVH && v <= h.VH {
			h.wasAboveVH = false
			h.adaptVR(d)
			vStart := v
			d.BeginSave(h.Kind, func() {
				h.recalibrate(vStart - d.LastV())
				d.Sleep()
			})
			return
		}
		if v > h.VH {
			h.wasAboveVH = true
		}
	case mcu.ModeSleep:
		if v < h.VR {
			return
		}
		switch {
		case h.pendingRestore:
			h.pendingRestore = false
			h.lastResumeT = d.Now()
			if !d.BeginRestore(nil) {
				d.ColdStart()
			}
		case h.pendingStart:
			h.pendingStart = false
			h.lastResumeT = d.Now()
			d.ColdStart()
		default:
			h.lastResumeT = d.Now()
			d.Wake()
		}
	}
}

// OnCheckpointTrap implements mcu.Runtime.
func (h *HibernusPP) OnCheckpointTrap(*mcu.Device) {}

// HibernateThresholds implements mcu.HibernateThresholds.
func (h *HibernusPP) HibernateThresholds() (vh, vr float64) { return h.VH, h.VR }

// WakeThreshold implements mcu.SleepWaker: like hibernus, a sleeping
// hibernus++ only waits for V_CC ≥ V_R. V_R moves between stints, but
// never while the device sleeps, so the threshold is stable across a dip.
func (h *HibernusPP) WakeThreshold() float64 { return h.VR }

// CrossoverFrequency evaluates the paper's eq. (5): the supply-interruption
// frequency above which a unified-FRAM (QuickRecall) system beats a
// hibernus (SRAM + snapshot) system:
//
//	f = (P_FRAM − P_SRAM) / (E_hibernus − E_quickrecall)
//
// pFRAM/pSRAM are the steady active power draws of the two systems and
// eHib/eQR the per-outage snapshot+restore energies. A non-positive
// denominator (QuickRecall's per-outage cost is not smaller) yields +Inf.
func CrossoverFrequency(pFRAM, pSRAM, eHib, eQR float64) float64 {
	den := eHib - eQR
	if den <= 0 {
		return math.Inf(1)
	}
	return (pFRAM - pSRAM) / den
}
