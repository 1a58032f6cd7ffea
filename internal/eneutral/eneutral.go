// Package eneutral implements the paper's §II.A: energy-neutral computing,
// the "make the harvester look like a battery" approach of Kansal et
// al. [3]. A sensor node buffers harvested energy in meaningful storage
// (battery or supercapacitor) and adapts its duty cycle so that, over a
// period T matched to the energy environment (24 h for solar), consumption
// equals harvest — eq. (1) — while the buffer keeps the supply alive —
// eq. (2). The package provides the node model, an adaptive (Kansal-style)
// duty-cycle controller and a fixed-duty baseline, and the windowed
// eq. (1)/(2) metrics the taxonomy and experiments evaluate.
package eneutral

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/source"
)

// Controller adjusts a node's duty cycle at each control epoch.
type Controller interface {
	Name() string
	// Adjust returns the new duty cycle given the node state, the time,
	// and the controller-period mean harvested power observed since the
	// previous call.
	Adjust(n *Node, t, meanHarvestW float64) float64
}

// Node is an energy-neutral sensing node: storage, harvester, and a
// duty-cycled load.
type Node struct {
	Storage *circuit.Battery
	Harvest source.PowerSource

	PActive float64 // consumption while performing duty (sense+transmit), W
	PSleep  float64 // sleep floor, W
	Duty    float64 // fraction of time active (0..1)
	DutyMin float64
	DutyMax float64

	// ReviveSoC: a node that died (eq. 2 violation) restarts only once
	// the battery recovers to this state of charge.
	ReviveSoC float64

	Controller Controller
	CtrlPeriod float64 // seconds between controller invocations

	// Observe, if non-nil, is called by Sim.Step after every step with
	// the time, the battery state of charge, the present duty cycle,
	// and whether the node is dead. It is a pure observer — tracing
	// hooks in here.
	Observe func(t, soc, duty float64, dead bool)

	dead bool
}

// NewNode returns a solar-WSN-flavoured node: 60 mW active, 60 µW sleep,
// duty limited to [1 %, 80 %], hourly control.
func NewNode(batteryJ, soc float64, harvest source.PowerSource) *Node {
	return &Node{
		Storage:    circuit.NewBattery(batteryJ, soc),
		Harvest:    harvest,
		PActive:    60e-3,
		PSleep:     60e-6,
		Duty:       0.2,
		DutyMin:    0.01,
		DutyMax:    0.8,
		ReviveSoC:  0.05,
		CtrlPeriod: 3600,
	}
}

// consumptionW returns the node's mean power at its present duty cycle.
func (n *Node) consumptionW() float64 {
	if n.dead {
		return 0
	}
	return n.Duty*n.PActive + (1-n.Duty)*n.PSleep
}

// Result summarises a simulation.
type Result struct {
	HarvestedJ float64
	ConsumedJ  float64
	FinalSoC   float64

	Violations  int     // eq. (2) violations: storage depleted, node dead
	DowntimeSec float64 // time spent dead
	ActiveSec   float64 // duty-weighted productive time

	// Windows holds the per-window eq. (1) imbalance ratios
	// |E_h − E_c| / E_h for each completed neutrality window.
	Windows []float64

	DutyTrace []float64 // duty cycle at each control epoch
}

// WorstWindow returns the largest eq. (1) imbalance ratio, or +Inf if no
// window completed.
func (r Result) WorstWindow() float64 {
	if len(r.Windows) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, w := range r.Windows {
		worst = math.Max(worst, w)
	}
	return worst
}

// Sim runs a node for a duration with a given integration step and
// eq. (1) evaluation window (typically 24 h). It advances in bounded
// chunks so a caller can interleave cancellation checks or capture a
// checkpoint between chunks, and its full state is exposed through
// State/Restore. The step-by-step arithmetic is identical to an
// uninterrupted run, so a restored Sim produces bit-identical results.
type Sim struct {
	n                    *Node
	duration, dt, window float64

	t                float64
	winH, winC, winT float64
	ctlH, ctlT       float64
	nextCtrl         float64
	res              Result

	// harvest samples n.Harvest along the step grid, reading the
	// shared sample table where it can. The first Step after NewSim or
	// Restore positions it at the clock.
	harvest    source.SampleCursor
	harvestSet bool
}

// NewSim prepares a stepper for n over duration seconds at step dt with
// the eq. (1) window.
func NewSim(n *Node, duration, dt, window float64) *Sim {
	return &Sim{n: n, duration: duration, dt: dt, window: window, nextCtrl: n.CtrlPeriod}
}

// Done reports whether the integration loop has covered the duration.
func (s *Sim) Done() bool { return !(s.t < s.duration) }

// Step advances up to maxSteps integration steps (all remaining when
// maxSteps ≤ 0).
func (s *Sim) Step(maxSteps int) {
	n := s.n
	dt := s.dt
	if !s.harvestSet {
		s.harvest = source.NewPowerCursor(n.Harvest, dt, s.t, s.duration)
		s.harvestSet = true
	}
	for k := 0; (maxSteps <= 0 || k < maxSteps) && s.t < s.duration; k++ {
		t := s.t
		ph := s.harvest.Sample(t)
		eh := ph * dt
		spill := n.Storage.Charge(eh)
		_ = spill

		if n.dead && n.Storage.SoC >= n.ReviveSoC {
			n.dead = false
		}
		pc := n.consumptionW()
		ec := pc * dt
		got := n.Storage.Discharge(ec)
		if !n.dead {
			s.res.ActiveSec += n.Duty * dt
		}
		if got < ec*0.999 && !n.dead {
			// Storage could not supply the demand: eq. (2) violated.
			n.dead = true
			s.res.Violations++
		}
		if n.dead {
			s.res.DowntimeSec += dt
		}

		s.res.HarvestedJ += eh
		s.res.ConsumedJ += got
		s.winH += eh
		s.winC += got
		s.winT += dt
		s.ctlH += eh
		s.ctlT += dt

		if s.winT >= s.window {
			if s.winH > 0 {
				s.res.Windows = append(s.res.Windows, math.Abs(s.winH-s.winC)/s.winH)
			}
			s.winH, s.winC, s.winT = 0, 0, 0
		}
		if n.Controller != nil && t >= s.nextCtrl {
			mean := 0.0
			if s.ctlT > 0 {
				mean = s.ctlH / s.ctlT
			}
			n.Duty = clamp(n.Controller.Adjust(n, t, mean), n.DutyMin, n.DutyMax)
			s.res.DutyTrace = append(s.res.DutyTrace, n.Duty)
			s.ctlH, s.ctlT = 0, 0
			s.nextCtrl = t + n.CtrlPeriod
		}
		if n.Observe != nil {
			n.Observe(t, n.Storage.SoC, n.Duty, n.dead)
		}
		s.t += dt
	}
}

// Result finalises and returns the run summary. Call after Done.
func (s *Sim) Result() Result {
	res := s.res
	res.FinalSoC = s.n.Storage.SoC
	return res
}

// SimState is the complete serialisable state of a Sim plus the mutable
// node state the loop evolves: clock, windows, accumulators, battery
// SoC, duty cycle, liveness, and the Kansal controller's harvest
// estimate (nil for other controllers).
type SimState struct {
	T                float64
	WinH, WinC, WinT float64
	CtlH, CtlT       float64
	NextCtrl         float64
	Res              Result

	SoC         float64
	ThroughputJ float64
	Duty        float64
	Dead        bool
	Kansal      *float64 // KansalController.estimateW, when in use
}

// State captures the stepper for later Restore.
func (s *Sim) State() SimState {
	st := SimState{
		T: s.t, WinH: s.winH, WinC: s.winC, WinT: s.winT,
		CtlH: s.ctlH, CtlT: s.ctlT, NextCtrl: s.nextCtrl,
		Res:         s.res,
		SoC:         s.n.Storage.SoC,
		ThroughputJ: s.n.Storage.ThroughputJ,
		Duty:        s.n.Duty,
		Dead:        s.n.dead,
	}
	if k, ok := s.n.Controller.(*KansalController); ok {
		est := k.estimateW
		st.Kansal = &est
	}
	return st
}

// Restore rewinds the stepper and its node to a captured state. The node
// must have been rebuilt identically to the one that produced the state
// (same parameters, sources, and controller type).
func (s *Sim) Restore(st SimState) {
	s.t = st.T
	s.harvestSet = false
	s.winH, s.winC, s.winT = st.WinH, st.WinC, st.WinT
	s.ctlH, s.ctlT = st.CtlH, st.CtlT
	s.nextCtrl = st.NextCtrl
	s.res = st.Res
	s.n.Storage.SoC = st.SoC
	s.n.Storage.ThroughputJ = st.ThroughputJ
	s.n.Duty = st.Duty
	s.n.dead = st.Dead
	if k, ok := s.n.Controller.(*KansalController); ok && st.Kansal != nil {
		k.estimateW = *st.Kansal
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// KansalController is the adaptive duty-cycling policy of [3]: estimate
// the mean harvest with an exponentially weighted average, set the duty so
// that expected consumption matches it, and bias toward the target state
// of charge so estimation errors do not accumulate in the buffer.
type KansalController struct {
	EWMAAlpha float64 // smoothing for the harvest estimate
	TargetSoC float64 // buffer setpoint
	SoCGain   float64 // proportional correction strength

	estimateW float64
}

// NewKansal returns the standard configuration (α=0.3, 60 % SoC target).
func NewKansal() *KansalController {
	return &KansalController{EWMAAlpha: 0.3, TargetSoC: 0.6, SoCGain: 1.2}
}

// Name implements Controller.
func (k *KansalController) Name() string { return "kansal-adaptive" }

// Adjust implements Controller.
func (k *KansalController) Adjust(n *Node, _, meanHarvestW float64) float64 {
	if k.estimateW == 0 {
		k.estimateW = meanHarvestW
	} else {
		k.estimateW = k.EWMAAlpha*meanHarvestW + (1-k.EWMAAlpha)*k.estimateW
	}
	// Power budget: the harvest estimate, biased by the SoC error so the
	// buffer converges to its setpoint.
	budget := k.estimateW * (1 + k.SoCGain*(n.Storage.SoC-k.TargetSoC))
	if budget < 0 {
		budget = 0
	}
	if n.PActive <= n.PSleep {
		return n.DutyMax
	}
	return (budget - n.PSleep) / (n.PActive - n.PSleep)
}

// FixedController is the non-adaptive baseline: a constant duty cycle,
// designed (or mis-designed) once.
type FixedController struct {
	Value float64
}

// Name implements Controller.
func (f *FixedController) Name() string { return "fixed-duty" }

// Adjust implements Controller.
func (f *FixedController) Adjust(*Node, float64, float64) float64 { return f.Value }
