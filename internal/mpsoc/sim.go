package mpsoc

import "math"

// SimResult summarises a time-domain power-neutral MPSoC run.
type SimResult struct {
	Steps         int
	Frames        float64 // total frames rendered
	MeanFPS       float64
	MeanBudgetW   float64
	MeanUsedW     float64
	Utilization   float64 // used power / budget, where a point fit
	Starved       int     // steps where even the lowest point didn't fit
	Switches      int     // operating-point changes
	MaxSustainedW float64 // largest budget observed
}

// Sim runs the power-neutral selector against a time-varying power
// budget over a duration at control step dt: at every step the
// highest-FPS operating point fitting the instantaneous budget is chosen
// (the runtime policy of [11]). Frames accumulate at the selected
// point's rate; steps whose budget cannot fit even the cheapest point
// render nothing (the board must buffer or power down). It advances in
// bounded chunks so a caller can interleave cancellation checks or
// capture a checkpoint between chunks, with its full state exposed
// through State/Restore. The per-step arithmetic is identical to an
// uninterrupted run.
type Sim struct {
	s      *Selector
	budget func(t float64) float64
	dt     float64
	steps  int

	i                                   int
	sumFPS, sumBudget, sumUsed, sumUtil float64
	utilSamples                         int
	lastPoint                           int // frontier index of the last pick; -1 before the first and while starved
	res                                 SimResult
}

// NewSim prepares a stepper for the selector against the budget over
// duration seconds at control step dt.
func NewSim(s *Selector, budget func(t float64) float64, duration, dt float64) *Sim {
	return &Sim{s: s, budget: budget, dt: dt, steps: int(math.Round(duration / dt)), lastPoint: -1}
}

// Done reports whether every control step has run.
func (m *Sim) Done() bool { return m.i >= m.steps }

// Step advances up to maxSteps control steps (all remaining when
// maxSteps ≤ 0).
func (m *Sim) Step(maxSteps int) {
	s := m.s
	for k := 0; (maxSteps <= 0 || k < maxSteps) && m.i < m.steps; k++ {
		i := m.i
		t := float64(i) * m.dt
		w := m.budget(t)
		// math.Max, not the builtin: they differ only on +Inf against
		// NaN, where math.Max keeps the +Inf a non-finite budget reached.
		m.res.MaxSustainedW = math.Max(m.res.MaxSustainedW, w)
		m.sumBudget += w
		idx, ok := s.Pick(w)
		var op OperatingPoint
		if ok {
			op = s.Frontier[idx]
		}
		if s.Observe != nil {
			s.Observe(t, w, op, ok)
		}
		m.i++
		if !ok {
			m.res.Starved++
			if m.lastPoint != -1 {
				m.res.Switches++
				m.lastPoint = -1
			}
			continue
		}
		// Every change of frontier index counts, the first selection
		// too (lastPoint starts at -1); Result discounts that one.
		if idx != m.lastPoint {
			m.res.Switches++
			m.lastPoint = idx
		}
		m.res.Frames += op.FPS * m.dt
		m.sumFPS += op.FPS
		m.sumUsed += op.PowerW
		m.sumUtil += op.PowerW / max(w, 1e-9)
		m.utilSamples++
	}
}

// Result finalises and returns the run summary. Call after Done.
func (m *Sim) Result() SimResult {
	res := m.res
	res.Steps = m.steps
	if m.steps > 0 {
		res.MeanFPS = m.sumFPS / float64(m.steps)
		res.MeanBudgetW = m.sumBudget / float64(m.steps)
		res.MeanUsedW = m.sumUsed / float64(m.steps)
	}
	if m.utilSamples > 0 {
		res.Utilization = m.sumUtil / float64(m.utilSamples)
	}
	if res.Switches > 0 {
		res.Switches-- // the first selection is not a switch
	}
	return res
}

// SimState is the complete serialisable state of a Sim: the step cursor,
// the running accumulators, and the partial result. The selector itself
// is stateless between steps (Pick is a pure function of the budget), so
// no selector state is captured.
type SimState struct {
	I                                   int
	SumFPS, SumBudget, SumUsed, SumUtil float64
	UtilSamples                         int
	LastPoint                           int
	Res                                 SimResult
}

// State captures the stepper for later Restore.
func (m *Sim) State() SimState {
	return SimState{
		I: m.i, SumFPS: m.sumFPS, SumBudget: m.sumBudget,
		SumUsed: m.sumUsed, SumUtil: m.sumUtil,
		UtilSamples: m.utilSamples, LastPoint: m.lastPoint, Res: m.res,
	}
}

// Restore rewinds the stepper to a captured state.
func (m *Sim) Restore(st SimState) {
	m.i = st.I
	m.sumFPS, m.sumBudget, m.sumUsed, m.sumUtil = st.SumFPS, st.SumBudget, st.SumUsed, st.SumUtil
	m.utilSamples = st.UtilSamples
	m.lastPoint = st.LastPoint
	m.res = st.Res
}
