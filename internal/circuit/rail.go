package circuit

import (
	"math"

	"repro/internal/source"
)

// Load is anything that draws current from the rail. The rail calls
// Current once per step with the present rail voltage and time; the load
// returns its draw in amperes. Loads that are off (e.g. a browned-out MCU)
// return ~0.
type Load interface {
	Current(v, t float64) float64
}

// ConstantCurrentLoad draws a fixed current whenever the rail is above a
// minimum operating voltage.
type ConstantCurrentLoad struct {
	I    float64
	VMin float64
}

// Current implements Load.
func (l *ConstantCurrentLoad) Current(v, _ float64) float64 {
	if v < l.VMin {
		return 0
	}
	return l.I
}

// Rail is the single-node power rail: a storage capacitor charged by a
// voltage or power source (through an ideal diode, so the source never
// discharges the node) and discharged by the attached loads.
//
// The solver is explicit forward Euler on the capacitor voltage. With the
// default step of a few microseconds and RC constants ≥ hundreds of
// microseconds the local error is far below the threshold hysteresis the
// runtimes use, which is what matters for event ordering fidelity.
type Rail struct {
	// VSource and PSource are resolved into devirtualized samplers on the
	// first Step; set them before stepping begins (a later swap is not
	// seen).
	VSource source.VoltageSource // either VSource or PSource (or both) may be set
	PSource source.PowerSource
	Cap     *Capacitor
	Loads   []Load

	// Telemetry (cumulative, joules / coulombs).
	HarvestedJ float64 // energy delivered into the node by the source
	ConsumedJ  float64 // energy drawn by loads

	// Last-step observables (amperes), for controllers that need the
	// instantaneous P_h and P_c of the paper's eq. (3).
	LastSourceI float64
	LastLoadI   float64

	now float64

	// Bound source fast path (see bind): precomputed samplers and the
	// clamped series resistance. SeriesResistance is constant by the
	// VoltageSource contract, so hoisting it out of the per-step path
	// cannot change results.
	bound   bool
	voltFn  func(float64) float64
	powerFn func(float64) float64
	rs      float64

	// The grid: the first clock move (Step or a closed-form advance)
	// keys the voltage source's shared sample table on its dt, and while
	// every move uses that dt the clock is t_k of the table's grid, with
	// samples at index k. A move by any other dt leaves the table for
	// good (tabled = false), and Step calls voltFn from then on.
	gridSet bool
	gridDt  float64
	tabled  bool                // Step reads the source through samples
	samples source.SampleCursor // VSource along the grid of gridDt
	expect  int                 // steps a run plans, from ExpectSteps
}

// maxSourceI limits the current a power source can push at very low rail
// voltage: the converter's current limit.
const maxSourceI = 1.0

// NewRail returns a rail over the given storage capacitor.
func NewRail(cap *Capacitor) *Rail {
	return &Rail{Cap: cap}
}

// AddLoad attaches a load to the rail.
func (r *Rail) AddLoad(l Load) { r.Loads = append(r.Loads, l) }

// Now returns the rail's current simulated time in seconds.
func (r *Rail) Now() float64 { return r.now }

// V returns the present rail voltage.
func (r *Rail) V() float64 { return r.Cap.V }

// bind resolves the per-step source fast path: devirtualized samplers
// (source.VoltageFn/PowerFn) and the clamped series resistance. It runs
// lazily on the first sourceCurrent, so the per-step cost of staying
// bound is a single bool check.
func (r *Rail) bind() {
	r.bound = true
	r.voltFn, r.powerFn = nil, nil
	if r.VSource != nil {
		r.voltFn = source.VoltageFn(r.VSource)
		r.rs = r.VSource.SeriesResistance()
		if r.rs <= 0 {
			r.rs = 1e-3
		}
	}
	if r.PSource != nil {
		r.powerFn = source.PowerFn(r.PSource)
	}
}

// ExpectSteps tells the rail, before its first clock move, that its run
// takes n steps. The voltage source's shared sample table is then built
// to cover them if it is shorter; a rail that expects no length reads
// the table as it finds it and builds none.
func (r *Rail) ExpectSteps(n int) { r.expect = n }

// regrid runs at a clock move by dt ≠ gridDt: the first move keys the
// sample table on dt, a later one leaves it for good.
func (r *Rail) regrid(dt float64) {
	if !r.bound {
		r.bind()
	}
	if r.gridSet {
		r.tabled = false
		r.gridDt = dt
		return
	}
	r.gridSet, r.gridDt = true, dt
	if r.VSource == nil {
		return
	}
	end := math.Inf(1)
	if r.expect > 0 {
		end = r.now + float64(r.expect)*dt
	}
	r.samples = source.NewVoltageCursor(r.VSource, dt, r.now, end)
	r.tabled = r.samples.Tabled()
}

// sourceCurrent computes the current the source pushes into the node at
// rail voltage v and time t, which Step passes as the grid instant t_k.
func (r *Rail) sourceCurrent(v, t float64) float64 {
	if !r.bound {
		r.bind()
	}
	var i float64
	if r.voltFn != nil {
		var vs float64
		if r.tabled {
			vs = r.samples.Sample(t)
		} else {
			vs = r.voltFn(t)
		}
		if vs > v { // ideal series diode: no reverse current
			i += (vs - v) / r.rs
		}
	}
	if r.powerFn != nil {
		p := r.powerFn(t)
		if p > 0 {
			// Current-limited constant-power injection; at very low rail
			// voltage the converter runs at its current limit.
			vEff := max(v, 0.1)
			i += min(p/vEff, maxSourceI)
		}
	}
	return i
}

// Step advances the rail by dt seconds: computes source and load currents
// at the present voltage, integrates the capacitor and updates telemetry.
// It returns the rail voltage after the step.
func (r *Rail) Step(dt float64) float64 {
	if dt != r.gridDt {
		r.regrid(dt)
	}
	t := r.now
	v := r.Cap.V
	iSrc := r.sourceCurrent(v, t)
	var iLoad float64
	if len(r.Loads) == 1 { // the common shape: one MCU on the rail
		iLoad = r.Loads[0].Current(v, t)
	} else {
		for _, l := range r.Loads {
			iLoad += l.Current(v, t)
		}
	}
	r.LastSourceI, r.LastLoadI = iSrc, iLoad
	r.Cap.Step(iSrc-iLoad, dt)
	r.HarvestedJ += iSrc * v * dt
	r.ConsumedJ += iLoad * v * dt
	r.now += dt
	return r.Cap.V
}

// idleSeries evaluates n steps of the affine recurrence V' = a·V + b (the
// discrete form Step integrates when the source is blocked and the load
// draws a constant current), clamping at zero exactly like Capacitor.Step.
// It returns the final voltage and the sum of the n pre-step voltages
// (what Step's load-energy telemetry integrates over).
func idleSeries(v0, a, b float64, n int) (vEnd, sumV float64) {
	if n <= 0 {
		return v0, 0
	}
	if b >= 0 && a >= 1 { // non-decaying: degenerate, nothing to solve
		return v0, v0 * float64(n)
	}
	if a <= 0 {
		// dt is not small against the leak RC constant: the closed form
		// (and forward Euler itself) is outside its stable regime, so just
		// iterate the recurrence exactly.
		v := v0
		for k := 0; k < n; k++ {
			sumV += v
			v = a*v + b
			if v < 0 {
				v = 0
			}
		}
		return v, sumV
	}
	if v0 <= 0 && b <= 0 {
		return 0, 0
	}
	// Find the first step index at which the voltage would clamp to zero;
	// beyond it the node sits at 0 V and contributes nothing.
	m := n // steps evaluated before the clamp
	if a == 1 {
		// No leak: linear discharge V_k = v0 + k·b.
		if b < 0 {
			k := int(math.Ceil(-v0 / b))
			if k < m {
				m = k
			}
		}
		vEnd = v0 + float64(n)*b
		if n > m {
			vEnd = 0
		}
		sumV = float64(m)*v0 + b*float64(m)*float64(m-1)/2
		if vEnd < 0 {
			vEnd = 0
		}
		return vEnd, sumV
	}
	// Leaky decay toward the fixed point V* = b/(1−a): V_k = (v0−V*)·a^k + V*.
	vStar := b / (1 - a)
	if vStar < 0 && v0 > 0 {
		// The trajectory crosses zero where a^k = −V*/(v0−V*).
		ratio := -vStar / (v0 - vStar)
		k := int(math.Ceil(math.Log(ratio) / math.Log(a)))
		if k >= 0 && k < m {
			m = k
		}
	}
	am := math.Pow(a, float64(m))
	sumV = (v0-vStar)*(1-am)/(1-a) + float64(m)*vStar
	if m < n {
		vEnd = 0
	} else {
		vEnd = (v0-vStar)*am + vStar
		if vEnd < 0 {
			vEnd = 0
		}
	}
	if sumV < 0 {
		sumV = 0
	}
	return vEnd, sumV
}

// idleCoeffs returns the recurrence coefficients a, b for an idle step of
// dt with constant load iLoad on this rail's capacitor.
func (r *Rail) idleCoeffs(dt, iLoad float64) (a, b float64) {
	a = 1.0
	if r.Cap.LeakR > 0 {
		a = 1 - dt/(r.Cap.LeakR*r.Cap.C)
	}
	b = -iLoad * dt / r.Cap.C
	return a, b
}

// PeekIdle predicts, without mutating any state, the rail voltage after n
// idle steps of dt — the source diode blocked, a constant load current
// iLoad. Used to decide whether a fast-forward skip is safe.
func (r *Rail) PeekIdle(n int, dt, iLoad float64) float64 {
	if r.Cap.C <= 0 {
		return r.Cap.V
	}
	a, b := r.idleCoeffs(dt, iLoad)
	vEnd, _ := idleSeries(r.Cap.V, a, b, n)
	return vEnd
}

// advanceClock adds n steps of dt to the rail clock one step at a time —
// the same additions in the same order as n Step calls — so a skipped
// run samples time-discontinuous sources (square waves, gated bursts) at
// bit-identical instants to stepwise integration. A single aggregated
// n·dt add rounds differently, and at a waveform edge that last-ulp shift
// can move the sampled discontinuity to the neighbouring step.
//
// The grid index advances with the clock, so the Step after a hop reads
// the sample of the instant it lands on.
func (r *Rail) advanceClock(n int, dt float64) {
	if dt != r.gridDt {
		r.regrid(dt)
	}
	for k := 0; k < n; k++ {
		r.now += dt
	}
	if r.tabled {
		r.samples.Skip(n)
	}
}

// AdvanceIdle advances the rail by n steps of dt in closed form, under the
// caller-guaranteed assumptions that the source is not conducting (diode
// blocked, or no source at all) and the attached loads draw a constant
// current iLoad throughout. It is the analytic equivalent of n calls to
// Step — same forward-Euler recurrence, same telemetry integral, same
// zero clamp — accurate to floating-point evaluation of the geometric
// series rather than bit-identical iteration.
func (r *Rail) AdvanceIdle(n int, dt, iLoad float64) float64 {
	if n <= 0 || dt <= 0 {
		return r.Cap.V
	}
	if r.Cap.C <= 0 {
		r.advanceClock(n, dt)
		return r.Cap.V
	}
	a, b := r.idleCoeffs(dt, iLoad)
	vEnd, sumV := idleSeries(r.Cap.V, a, b, n)
	r.Cap.V = vEnd
	r.ConsumedJ += iLoad * sumV * dt
	r.LastSourceI, r.LastLoadI = 0, iLoad
	r.advanceClock(n, dt)
	return r.Cap.V
}

// drivenCoeffs returns the affine per-step recurrence V' = a·V + b that
// Step integrates while the bound voltage source conducts at a constant
// vs through its series resistance into a constant load iLoad:
//
//	V' = V + dt/C · ((vs−V)/rs − iLoad − V/LeakR)
//
// matching Capacitor.Step's pre-step leak exactly.
func (r *Rail) drivenCoeffs(dt, iLoad, vs float64) (a, b float64) {
	c := r.Cap.C
	a = 1 - dt/(r.rs*c)
	if r.Cap.LeakR > 0 {
		a -= dt / (r.Cap.LeakR * c)
	}
	b = (vs/r.rs - iLoad) * dt / c
	return a, b
}

// drivenSeries evaluates n steps of V' = a·V + b for 0 < a < 1, returning
// the final voltage plus the sum and sum-of-squares of the n pre-step
// voltages — the integrals behind the load- and harvest-energy telemetry.
// The trajectory is monotone between v0 and the fixed point b/(1−a); the
// caller guarantees it stays inside the capacitor's clamp range.
func drivenSeries(v0, a, b float64, n int) (vEnd, sumV, sumV2 float64) {
	vStar := b / (1 - a)
	c := v0 - vStar
	an := math.Pow(a, float64(n))
	fn := float64(n)
	g1 := (1 - an) / (1 - a)      // Σ a^k, k = 0..n−1
	g2 := (1 - an*an) / (1 - a*a) // Σ a^2k
	vEnd = c*an + vStar
	sumV = c*g1 + fn*vStar
	sumV2 = c*c*g2 + 2*c*vStar*g1 + fn*vStar*vStar
	return vEnd, sumV, sumV2
}

// PeekDriven predicts, without mutating any state, the rail voltage after
// n steps of dt with the voltage source conducting at the constant
// plateau voltage vs and the loads drawing a constant iLoad. ok=false
// means the affine recurrence has no stable closed form here (no
// capacitance, no voltage source, or dt too coarse against the source RC
// constant) and the caller must integrate stepwise.
func (r *Rail) PeekDriven(n int, dt, iLoad, vs float64) (float64, bool) {
	if !r.bound {
		r.bind()
	}
	if r.Cap.C <= 0 || r.voltFn == nil {
		return r.Cap.V, false
	}
	a, b := r.drivenCoeffs(dt, iLoad, vs)
	if a <= 0 || a >= 1 {
		return r.Cap.V, false
	}
	vEnd, _, _ := drivenSeries(r.Cap.V, a, b, n)
	return vEnd, true
}

// AdvanceDriven advances the rail by n steps of dt in closed form while
// the voltage source conducts at the constant plateau voltage vs into a
// constant load iLoad — the charging counterpart of AdvanceIdle. The
// caller guarantees what PeekDriven checked (a stable recurrence) plus
// that neither the zero clamp nor MaxV is reached inside the hop and that
// the source plateau covers it. The diode cannot stop conducting on its
// own: the recurrence's fixed point lies strictly below vs, so a
// trajectory starting below vs stays below it. Telemetry matches n Step
// calls to closed-form accuracy — HarvestedJ integrates (vs−V)·V/rs·dt
// and ConsumedJ integrates iLoad·V·dt over the pre-step voltages, and
// the Last* observables reflect the final step.
func (r *Rail) AdvanceDriven(n int, dt, iLoad, vs float64) float64 {
	if n <= 0 || dt <= 0 {
		return r.Cap.V
	}
	if !r.bound {
		r.bind()
	}
	if r.Cap.C <= 0 {
		r.advanceClock(n, dt)
		return r.Cap.V
	}
	a, b := r.drivenCoeffs(dt, iLoad, vs)
	v0 := r.Cap.V
	vEnd, sumV, sumV2 := drivenSeries(v0, a, b, n)
	vPen := v0 // pre-step voltage of the final step
	if n > 1 {
		vPen, _, _ = drivenSeries(v0, a, b, n-1)
	}
	r.Cap.V = vEnd
	r.HarvestedJ += (vs*sumV - sumV2) / r.rs * dt
	r.ConsumedJ += iLoad * sumV * dt
	r.LastSourceI = (vs - vPen) / r.rs
	r.LastLoadI = iLoad
	r.advanceClock(n, dt)
	return r.Cap.V
}
