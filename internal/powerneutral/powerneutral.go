// Package powerneutral implements the paper's §II.C: controllers that keep
// a system power-neutral, i.e. satisfying eq. (3), P_h(t) = P_c(t), with
// only parasitic/decoupling storage smoothing the residual. Because the
// load cannot change what the harvester supplies, the controller modulates
// the load's own consumption — here through the MCU's DFS hook — to hold
// V_CC at a setpoint: a constant V_CC means the decoupling capacitance is
// neither charging nor discharging, which is precisely power neutrality.
//
// Two governor policies are provided (an ablation the DESIGN calls out):
// a hill-climbing stepper and a proportional mapper. HibernusPN combines a
// governor with the hibernus runtime, reproducing the paper's Fig. 8
// system: DFS absorbs supply variation while it can, hibernation catches
// the troughs DFS cannot ride out.
package powerneutral

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/mcu"
	"repro/internal/transient"
)

// Policy selects the governor's decision rule.
type Policy int

// Governor policies.
const (
	// HillClimb steps the DFS level up/down by one when V_CC leaves the
	// hysteresis band around the target — slow but smooth and model-free.
	HillClimb Policy = iota
	// Proportional maps the voltage error directly onto the DFS range —
	// faster response, larger frequency swings.
	Proportional
)

// Governor holds V_CC at VTarget by modulating the device's DFS level.
// Call Act from the simulation loop (e.g. lab.Setup.OnTick).
type Governor struct {
	VTarget    float64
	Hysteresis float64 // half-width of the dead band
	Period     float64 // control period, seconds
	Policy     Policy

	// Telemetry.
	Decisions int
	UpSteps   int
	DownSteps int

	lastAct float64
	started bool
}

// NewGovernor returns a hill-climbing governor with a 2 ms control period.
func NewGovernor(vTarget float64) *Governor {
	return &Governor{
		VTarget:    vTarget,
		Hysteresis: 0.08,
		Period:     2e-3,
		Policy:     HillClimb,
	}
}

// Act runs one control decision if a full period has elapsed. It only
// actuates while the device is actively executing — sleeping or saving
// devices are left alone (their consumption is not frequency-bound).
func (g *Governor) Act(t float64, d *mcu.Device, v float64) {
	if !g.started {
		g.started = true
		g.lastAct = t
		return
	}
	if t-g.lastAct < g.Period {
		return
	}
	g.lastAct = t
	if d.Mode() != mcu.ModeActive {
		return
	}
	g.Decisions++
	switch g.Policy {
	case HillClimb:
		switch {
		case v > g.VTarget+g.Hysteresis:
			// Surplus power is charging the rail: run faster.
			d.SetFreqIndex(d.FreqIndex() + 1)
			g.UpSteps++
		case v < g.VTarget-g.Hysteresis:
			// Deficit: slow down before the rail collapses.
			d.SetFreqIndex(d.FreqIndex() - 1)
			g.DownSteps++
		}
	case Proportional:
		span := 0.6 // volts of error that sweeps the full DFS range
		frac := (v - (g.VTarget - span/2)) / span
		idx := int(math.Round(frac * float64(len(d.P.FreqLevels)-1)))
		// Clamp before comparing with the current level: beyond the rail
		// extremes SetFreqIndex would clamp anyway, and counting those
		// no-op decisions as Up/DownSteps inflates the telemetry.
		if idx < 0 {
			idx = 0
		}
		if max := len(d.P.FreqLevels) - 1; idx > max {
			idx = max
		}
		cur := d.FreqIndex()
		if idx > cur {
			g.UpSteps++
		} else if idx < cur {
			g.DownSteps++
		}
		d.SetFreqIndex(idx)
	}
}

// HibernusPN is the paper's §III combined system (the "hibernus-PN" point
// of Fig. 2): transient computing via hibernus plus power-neutral DFS.
// While the supply can sustain any DFS level, the governor rides it and
// V_CC never crosses V_H — avoiding snapshot/restore overhead entirely
// (the paper's 0.4–1.1 s window in Fig. 8). When even the lowest level is
// too expensive, the inherited hibernus machinery hibernates as usual.
type HibernusPN struct {
	transient.Hibernus
	Gov *Governor
}

// NewHibernusPN builds the combined runtime: hibernus thresholds from
// eq. (4) plus a governor targeting vTarget.
func NewHibernusPN(d *mcu.Device, c, margin, vrHeadroom, vTarget float64) *HibernusPN {
	h := transient.NewHibernus(d, c, margin, vrHeadroom)
	return &HibernusPN{Hibernus: *h, Gov: NewGovernor(vTarget)}
}

// OnTick implements mcu.Runtime: govern first (so consumption tracks the
// supply), then let hibernus handle thresholds.
func (p *HibernusPN) OnTick(d *mcu.Device, v float64) {
	p.Gov.Act(d.Now(), d, v)
	p.Hibernus.OnTick(d, v)
}

// WakeThreshold shadows the promoted hibernus implementation to opt OUT of
// mcu.SleepWaker fast-forwarding: unlike plain hibernus, HibernusPN's
// OnTick is not a no-op while the device sleeps — the governor's control
// clock (Act's period bookkeeping) advances on every tick, so skipping
// sleep ticks would shift post-wake DFS decisions. Returning -Inf tells
// the lab there is no voltage below which ticks can be elided.
func (p *HibernusPN) WakeThreshold() float64 { return math.Inf(-1) }

// ActiveSettled shadows the promoted hibernus implementation to opt OUT
// of mcu.ActiveThresholds adaptive stepping for the same reason: the
// governor acts on every active tick (not just at V_H crossings), so no
// active stretch is ever skippable. Never settled means never hopped.
func (p *HibernusPN) ActiveSettled(float64) bool { return false }

// TrackingStats measures how well eq. (3) held over a run. Because an
// instantaneous P_h(t) = P_c(t) is unattainable for pulsed sources (the
// paper itself relaxes T to "a sufficiently small period"), the metric is
// windowed: harvested and consumed energy are compared over fixed windows
// (defaulting to one AC period) and the mismatch normalised by the energy
// harvested. V_CC excursion is reported alongside, since a flat V_CC is
// the operational definition of power neutrality.
type TrackingStats struct {
	Windows      int
	MeanAbsErrJ  float64 // mean |E_h − E_c| per window
	MeanHarvestJ float64 // mean E_h per window
	VMin, VMax   float64
}

// RelativeError returns mean|E_h−E_c| / mean(E_h) over the observation
// windows (0 = perfectly power-neutral at the window timescale).
func (ts TrackingStats) RelativeError() float64 {
	if ts.MeanHarvestJ <= 0 {
		return math.Inf(1)
	}
	return ts.MeanAbsErrJ / ts.MeanHarvestJ
}

// VRange returns the observed V_CC excursion.
func (ts TrackingStats) VRange() float64 { return ts.VMax - ts.VMin }

// Tracker accumulates TrackingStats from rail observations.
type Tracker struct {
	Window float64 // window length, seconds

	curEh, curEc, curT float64
	sumErr, sumEh      float64
	windows            int
	vMin, vMax         float64
}

// NewTracker returns a tracker with a 50 ms comparison window (one 20 Hz
// supply period).
func NewTracker() *Tracker {
	return &Tracker{Window: 0.05, vMin: math.Inf(1), vMax: math.Inf(-1)}
}

// Observe records one simulation step of length dt.
func (tr *Tracker) Observe(rail *circuit.Rail, v, dt float64) {
	tr.curEh += rail.LastSourceI * v * dt
	tr.curEc += rail.LastLoadI * v * dt
	tr.curT += dt
	tr.vMin = math.Min(tr.vMin, v)
	tr.vMax = math.Max(tr.vMax, v)
	if tr.curT >= tr.Window {
		tr.sumErr += math.Abs(tr.curEh - tr.curEc)
		tr.sumEh += tr.curEh
		tr.windows++
		tr.curEh, tr.curEc, tr.curT = 0, 0, 0
	}
}

// Stats returns the accumulated statistics over completed windows.
func (tr *Tracker) Stats() TrackingStats {
	ts := TrackingStats{Windows: tr.windows, VMin: tr.vMin, VMax: tr.vMax}
	if tr.windows > 0 {
		ts.MeanAbsErrJ = tr.sumErr / float64(tr.windows)
		ts.MeanHarvestJ = tr.sumEh / float64(tr.windows)
	}
	return ts
}
