// Package lab wires a guest workload, a simulated MCU, an optional
// transient runtime, and an energy source into one experiment and runs it:
// the shared bench all figure reproductions, tests, and examples drive.
//
// The loop alternates rail integration with device ticks at a fixed step,
// counts workload completions (verifying each result against the
// workload's host-computed reference), and optionally records V_CC, the
// DFS frequency, and device mode into a trace recorder.
package lab

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/circuit"
	"repro/internal/isa"
	"repro/internal/mcu"
	"repro/internal/periph"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/trace"
)

// Setup describes one experiment.
type Setup struct {
	Workload *programs.Workload
	Params   mcu.Params

	// MakeRuntime, if non-nil, builds the transient runtime after the
	// device exists (runtimes often need device parameters and the rail
	// capacitance for calibration). Return nil for a bare device.
	MakeRuntime func(d *mcu.Device) mcu.Runtime

	// Exactly one energy source is usually set; both may be set for
	// hybrid supplies, neither for a dead rail.
	VSource source.VoltageSource
	PSource source.PowerSource

	C     float64 // rail storage capacitance, farads
	V0    float64 // initial rail voltage
	LeakR float64 // parallel leakage resistance on the rail; 0 = none
	Dt    float64 // simulation step; DefaultDt when ≤ 0

	Duration float64 // simulated seconds

	// Recorder, if non-nil, records the run's V_CC, frequency and mode;
	// its interval (trace.Recorder.SetInterval) sets the sampling cadence.
	Recorder *trace.Recorder

	// OnTick, if non-nil, runs after every simulation step — governors
	// (power-neutral DFS) hook in here.
	OnTick func(t float64, d *mcu.Device, rail *circuit.Rail)

	// FastForward lets the stepping loop advance analytically instead of
	// integrating at Dt wherever the rail has a closed form:
	//
	//   - Idle decay: the device is off (or asleep under an mcu.SleepWaker
	//     runtime) and the source diode is blocked — a pure RC decay with
	//     a constant micro-amp load.
	//   - Plateau phases: the supply advertises an exactly constant
	//     stretch (source.PlateauVoltage — DC and square-wave supplies),
	//     making the rail an affine per-step recurrence whether the diode
	//     conducts or not. This covers active execution too: the device's
	//     cycle budget advances step-exactly (completion timestamps,
	//     ActiveSec, and the cycle remainder match stepwise bit-for-bit)
	//     while the rail moves in one closed-form hop, provided any
	//     attached runtime publishes its thresholds via
	//     mcu.ActiveThresholds.
	//
	// Skips proceed in bounded chunks and end strictly before any voltage
	// threshold crossing (V_On, V_Off, runtime thresholds, diode
	// engagement, clamp limits), so every crossing is integrated stepwise
	// on exactly the boundary full integration would use — discrete event
	// counts and orderings are preserved exactly. Continuous telemetry
	// (energies, voltages) agrees to closed-form evaluation of the series,
	// not bit-exactly. A Recorder with a positive interval keeps its
	// full sampling cadence through skips via interpolated closed-form
	// samples. OnTick and interval-less recorders observe chunk boundaries
	// only. Leave it false (the default) where byte-identical output
	// matters.
	FastForward bool
}

// DefaultDt is the simulation step of a Setup that leaves Dt unset.
const DefaultDt = 5e-6

// ffChunk is the fast-forward skip granularity in steps: the longest
// stretch skipped between source probes. 100 steps at the default 5 µs
// step is 0.5 ms — far below any supply feature in the source library.
const ffChunk = 100

// progCache memoises assembly output keyed by the workload's full source
// text. Workloads come from a fixed registry, so the cache is bounded;
// a Program is never mutated after assembly (LoadInto only reads it), so
// sharing one across concurrent sweep cases is safe. Sweeps re-run the
// same workload hundreds of times — without this, every case pays the
// two-pass assembler again for identical text.
var progCache sync.Map // source text -> *isa.Program

// assemble returns the (possibly cached) assembled image of w.
func assemble(w *programs.Workload) (*isa.Program, error) {
	if p, ok := progCache.Load(w.Source); ok {
		return p.(*isa.Program), nil
	}
	p, err := isa.Assemble(w.Source)
	if err != nil {
		return nil, err
	}
	actual, _ := progCache.LoadOrStore(w.Source, p)
	return actual.(*isa.Program), nil
}

// Result summarises a run.
type Result struct {
	Completions     int       // correct workload iterations finished
	WrongResults    int       // iterations finishing with a wrong checksum
	CompletionTimes []float64 // simulated time of each completion

	Stats      mcu.Stats
	HarvestedJ float64
	ConsumedJ  float64
	FinalV     float64
	RuntimeErr error // guest fault, if any

	// Steps is the number of Dt-sized simulation steps the run covered,
	// fast-forwarded stretches included — the denominator benchmarks use
	// for steps-per-second rates. It is duration/Dt regardless of how the
	// steps were advanced, so it never appears in rendered reports.
	Steps int

	FirstCompletion float64 // time of first completion, or -1

	// Bank reports that the workload drove a peripheral bank
	// (programs.Workload.MMIO); TxDelivered and TxDropped are then the
	// bank radio's delivered and dropped packet counts.
	Bank                   bool
	TxDelivered, TxDropped int

	// Hibernates reports that the runtime is of the hibernus family
	// (mcu.HibernateThresholds); VH and VR are then its hibernate and
	// restore thresholds at the end of the run.
	Hibernates bool
	VH, VR     float64
}

// Throughput returns completions per simulated second.
func (r Result) Throughput(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(r.Completions) / duration
}

// EnergyPerCompletion returns consumed joules per correct completion
// (+Inf if none).
func (r Result) EnergyPerCompletion() float64 {
	if r.Completions == 0 {
		return math.Inf(1)
	}
	return r.ConsumedJ / float64(r.Completions)
}

// Sim is one lab run in progress: Start builds the device, runtime and
// rail from a Setup, Step advances the stepping loop a bounded number of
// steps at a time, and Result summarises the run once Done. Stepping a
// run in chunks of any size gives the same bits as stepping it whole.
type Sim struct {
	s     Setup
	d     *mcu.Device
	rail  *circuit.Rail
	bank  *periph.Bank
	obs   *observer
	plat  func(t float64) (v, until float64, ok bool)
	ff    bool
	i     int // steps covered so far
	steps int
	res   Result
}

// Run executes the experiment in one Step.
func Run(s Setup) (Result, error) {
	m, err := Start(s)
	if err != nil {
		return Result{}, err
	}
	m.Step(m.steps)
	return m.Result(), nil
}

// Start builds the experiment's device, runtime and rail, ready to Step.
func Start(s Setup) (*Sim, error) {
	if s.Workload == nil {
		return nil, fmt.Errorf("lab: no workload")
	}
	if s.Dt <= 0 {
		s.Dt = DefaultDt
	}
	prog, err := assemble(s.Workload)
	if err != nil {
		return nil, fmt.Errorf("lab: assemble %s: %w", s.Workload.Name, err)
	}
	d := mcu.New(s.Params, prog)

	m := &Sim{s: s, d: d}
	res := &m.res
	res.FirstCompletion = -1
	expected := s.Workload.Expected
	d.SysHandler = func(code uint16, c *isa.Core) {
		if code != programs.SysDone {
			return
		}
		if c.R[1] == expected {
			res.Completions++
			res.CompletionTimes = append(res.CompletionTimes, d.Now())
			if res.FirstCompletion < 0 {
				res.FirstCompletion = d.Now()
			}
		} else {
			res.WrongResults++
		}
	}

	// The bank goes on before the runtime is built: a runtime whose
	// snapshots cover it sizes its eq. (4) threshold with the bank's
	// bytes included.
	if s.Workload.MMIO {
		m.bank = periph.NewBank()
		d.Bus.MMIOBase, d.Bus.MMIOLen, d.Bus.Periph = mcu.DefaultMMIOBase, mcu.DefaultMMIOLen, m.bank
		d.Aux = m.bank
	}
	if s.MakeRuntime != nil {
		if rt := s.MakeRuntime(d); rt != nil {
			d.Attach(rt)
		}
	}

	cap := circuit.NewCapacitor(s.C, s.V0)
	cap.LeakR = s.LeakR
	m.rail = circuit.NewRail(cap)
	m.rail.VSource = s.VSource
	m.rail.PSource = s.PSource
	m.rail.AddLoad(d)

	m.steps = stepCount(s.Duration, s.Dt)
	m.obs = s.newObserver()
	// Power sources charge unconditionally with a rail-voltage-dependent
	// conversion, which no affine closed form covers, so a run with one
	// never hops and fast-forward has nothing to do.
	m.ff = s.FastForward && s.PSource == nil
	if m.ff {
		m.plat = source.PlateauFn(s.VSource)
	} else {
		// A stepwise run samples every step, so a cold run's recording
		// is sized once; a hop would end it early.
		m.rail.ExpectSteps(m.steps)
	}
	return m, nil
}

// Step advances the run by up to maxSteps Dt-sized steps. A
// fast-forward hop is bounded by the whole run's remaining steps, not
// the chunk's, so it may carry the run past the chunk's end: the hop
// sequence, and so every result bit, does not depend on the chunking.
func (m *Sim) Step(maxSteps int) {
	// The loops keep their state in locals: no per-step field load.
	d, rail, dt, obs, ff, plat, steps := m.d, m.rail, m.s.Dt, m.obs, m.ff, m.plat, m.steps
	i, end := m.i, steps
	if maxSteps < end-i {
		end = i + maxSteps
	}
	if obs == nil && !ff {
		// Hot path: nothing to observe — the loop is exactly one rail
		// integration and one device tick per step, with every per-step
		// feature check hoisted to this single branch.
		for ; i < end; i++ {
			d.Tick(rail.Step(dt), dt)
		}
	} else {
		for i < end {
			if ff {
				if n := m.s.tryFastForward(d, rail, obs, plat, steps-i); n > 0 {
					i += n
					continue
				}
			}
			v := rail.Step(dt)
			d.Tick(v, dt)
			obs.observe(rail.Now(), v, d, rail)
			i++
		}
	}
	m.i = i
	if i >= steps {
		rail.Finish()
	}
}

// Done reports whether the run has covered its duration.
func (m *Sim) Done() bool { return m.i >= m.steps }

// Result summarises the run. Call it once Done.
func (m *Sim) Result() Result {
	res := m.res
	res.Steps = m.steps
	res.Stats = m.d.FinalStats()
	res.HarvestedJ = m.rail.HarvestedJ
	res.ConsumedJ = m.rail.ConsumedJ
	res.FinalV = m.rail.Cap.V
	res.RuntimeErr = m.d.Err
	if m.bank != nil {
		res.Bank, res.TxDelivered, res.TxDropped = true, m.bank.TxDelivered, m.bank.TxDropped
	}
	if h, ok := m.d.Runtime().(mcu.HibernateThresholds); ok {
		res.Hibernates = true
		res.VH, res.VR = h.HibernateThresholds()
	}
	return res
}

// crossedTh reports whether a monotone move from v0 to v reached or
// passed the threshold th. Touching the threshold exactly counts as
// crossing: the stepwise loop must own every comparison against th,
// whichever way its own inequalities are written. v0 == th is excluded
// by the caller (the hop refuses to start on a threshold).
func crossedTh(v0, v, th float64) bool {
	if v0 > th {
		return v <= th
	}
	return v >= th
}

// tryFastForward attempts to consume up to ffChunk simulation steps
// analytically. It returns the number of steps skipped, or 0 when the
// coming interval must be integrated stepwise. plat is s.VSource's
// bound Plateau (source.PlateauFn) when it advertises plateaus, else
// nil; the run never calls it with a power source set.
//
// Two families of stretches are skippable:
//
//   - Idle decay (device off, or asleep under an mcu.SleepWaker runtime)
//     with the source diode blocked — the original fast-forward.
//   - Any phase, active execution included, while the supply sits on an
//     exact plateau (source.PlateauVoltage): the rail follows an affine
//     per-step recurrence whether the diode conducts (AdvanceDriven) or
//     not (AdvanceIdle), and the device's cycle budget advances without
//     per-step rail coupling (mcu.Device.AdvanceActive). Active hops
//     additionally require the runtime (if any) to publish its voltage
//     thresholds via mcu.ActiveThresholds and to be settled at the
//     present voltage.
//
// Every voltage threshold that can change behaviour — V_On, V_Off, the
// runtime's wake/active thresholds, the plateau voltage itself (diode
// engagement), the capacitor's clamp range — bounds the hop: the skip
// ends strictly before the first predicted crossing, so the crossing
// step is integrated stepwise and lands on exactly the same step
// boundary as full integration.
func (s *Setup) tryFastForward(d *mcu.Device, rail *circuit.Rail, obs *observer, plat func(float64) (float64, float64, bool), remaining int) int {
	n := ffChunk
	if n > remaining {
		n = remaining
	}
	if n < 2 {
		return 0
	}
	t0 := rail.Now()
	v0 := rail.V()

	// Resolve the supply's plateau around t0, when it advertises one.
	// The hop keeps a full step of margin inside the plateau, so the
	// accumulated-clock instants the stepwise loop would have sampled can
	// never reach past its end.
	var vs float64
	hasPlat := false
	if plat != nil {
		if pV, until, ok := plat(t0); ok {
			if span := until - t0; span >= float64(n+1)*s.Dt {
				vs, hasPlat = pV, true
			} else if maxK := int(span/s.Dt) - 1; maxK >= 2 {
				vs, hasPlat = pV, true
				n = maxK
			}
		}
	}
	conducting := hasPlat && vs > v0

	// Collect the thresholds whose crossings must land on exact step
	// boundaries; a mode that cannot hop at all returns 0 instead.
	var ths [8]float64
	nth := 0
	switch d.Mode() {
	case mcu.ModeOff:
		if v0 >= d.P.VOn {
			return 0 // about to power on; let the stepwise path take it
		}
		ths[nth] = d.P.VOn
		nth++
	case mcu.ModeSleep:
		if rt := d.Runtime(); rt != nil {
			sw, ok := rt.(mcu.SleepWaker)
			if !ok {
				return 0
			}
			if v0 >= sw.WakeThreshold() {
				return 0 // about to wake
			}
			ths[nth] = sw.WakeThreshold()
			nth++
		}
		ths[nth] = d.P.VOff
		nth++
	case mcu.ModeActive:
		if s.VSource != nil && !hasPlat {
			return 0 // executing against a non-analytic supply
		}
		if rt := d.Runtime(); rt != nil {
			at, ok := rt.(mcu.ActiveThresholds)
			if !ok || !at.ActiveSettled(v0) {
				return 0
			}
			for _, th := range at.ActiveThresholds() {
				if nth == len(ths)-3 {
					return 0 // more thresholds than the hop tracks
				}
				ths[nth] = th
				nth++
			}
		}
		ths[nth] = d.P.VOff
		nth++
	default:
		return 0 // saving/restoring: short, DMA-coupled, never skipped
	}

	if s.VSource != nil && !hasPlat {
		// Non-analytic supply (off/asleep only, from the gates above):
		// the legacy probe-based refusal. The source is blocked now; the
		// rail only decays, so its chunk minimum is the predicted end
		// voltage — if the source could exceed that at any probe (start,
		// midpoint, end), the diode may engage mid-chunk and the stretch
		// integrates stepwise instead.
		iOff := d.Current(v0, t0)
		if s.VSource.Voltage(t0) > v0 {
			return 0
		}
		vEnd := rail.PeekIdle(n, s.Dt, iOff)
		span := float64(n) * s.Dt
		if s.VSource.Voltage(t0+span/2) > vEnd || s.VSource.Voltage(t0+span) > vEnd {
			return 0
		}
	}
	if hasPlat && !conducting && vs > 0 {
		ths[nth] = vs // the diode engages if the rail decays to the plateau
		nth++
	}
	if conducting {
		ths[nth] = 0 // the capacitor clamps: the recurrence breaks there
		nth++
		if mv := rail.Cap.MaxV; mv > 0 {
			ths[nth] = mv
			nth++
		}
	}

	// Loads draw a constant current through the hop: the mode is fixed,
	// the clock is fixed (governors observe chunk boundaries only, as
	// documented on FastForward), and Device.Current ignores the voltage
	// above zero.
	iLoad := d.Current(v0, t0)
	var peek func(k int) float64
	if conducting {
		if _, ok := rail.PeekDriven(1, s.Dt, iLoad, vs); !ok {
			return 0 // no stable closed form at this step size
		}
		peek = func(k int) float64 {
			v, _ := rail.PeekDriven(k, s.Dt, iLoad, vs)
			return v
		}
	} else {
		peek = func(k int) float64 { return rail.PeekIdle(k, s.Dt, iLoad) }
	}

	for _, th := range ths[:nth] {
		if v0 == th {
			return 0 // sitting exactly on a threshold: stepwise owns equality
		}
	}
	// The trajectory is monotone, so the hop is safe up to (exclusive)
	// the first step whose end voltage reaches any threshold. Bisect for
	// that step and stop just before it.
	for _, th := range ths[:nth] {
		if !crossedTh(v0, peek(n), th) {
			continue
		}
		lo, hi := 1, n
		for lo < hi {
			mid := (lo + hi) / 2
			if crossedTh(v0, peek(mid), th) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		n = lo - 1
		if n < 2 {
			return 0
		}
	}

	hop := n
	active := d.Mode() == mcu.ModeActive
	if active {
		// Execute the device's per-step cycle budget first — simulated
		// time, ActiveSec, and completion timestamps advance exactly as
		// stepwise — then move the rail through the same span in closed
		// form.
		hop = d.AdvanceActive(n, s.Dt)
		if hop == 0 {
			return 0
		}
	}

	// An interval-gated recorder keeps its sampling cadence through the
	// skip: emit a sample, evaluated on the same closed form the advance
	// integrates, at every instant the stepwise loop would have recorded.
	// Mode and frequency cannot change inside the skip, so only V_CC
	// needs interpolating.
	if obs != nil && obs.vcc != nil && s.Recorder.Interval() > 0 {
		fMHz := d.Freq() / 1e6
		mode := float64(d.Mode())
		for k := 1; k < hop; k++ {
			tk := t0 + float64(k)*s.Dt
			if !obs.vcc.Due(tk) {
				continue
			}
			obs.vcc.Record(tk, peek(k))
			obs.freq.Record(tk, fMHz)
			obs.mode.Record(tk, mode)
		}
	}

	var v float64
	if conducting {
		v = rail.AdvanceDriven(hop, s.Dt, iLoad, vs)
	} else {
		v = rail.AdvanceIdle(hop, s.Dt, iLoad)
	}
	if active {
		d.NoteRailV(v)
	} else {
		// Account the skipped off/sleep time with per-step clock rounding,
		// so device-local timestamps stay bit-identical to stepwise. No
		// threshold was crossed, so nothing can power on, wake, or brown
		// out inside the span.
		d.TickSpan(v, s.Dt, hop)
	}
	obs.observe(rail.Now(), v, d, rail)
	return hop
}

// observer is the per-run observation state, resolved once before the
// stepping loop: the OnTick hook and pre-bound trace channels, so the
// per-step cost of "nothing to observe" is a nil check and recording
// avoids any per-sample series lookup.
type observer struct {
	onTick          func(t float64, d *mcu.Device, rail *circuit.Rail)
	vcc, freq, mode *trace.Channel
}

// newObserver builds the run's observer, or nil when the setup observes
// nothing (the condition for the loop's hot path).
func (s *Setup) newObserver() *observer {
	if s.OnTick == nil && s.Recorder == nil {
		return nil
	}
	o := &observer{onTick: s.OnTick}
	if s.Recorder != nil {
		// Channel order fixes the trace's CSV column order.
		o.vcc = s.Recorder.Channel("vcc", "V")
		o.freq = s.Recorder.Channel("freq", "MHz")
		o.mode = s.Recorder.Channel("mode", "")
	}
	return o
}

// observe runs the per-step observers: the OnTick hook, then the trace
// triple (V_CC, DFS frequency, mode) when a recorder is attached. Both
// the stepwise loop and the fast-forward path end every advance here.
func (o *observer) observe(t, v float64, d *mcu.Device, rail *circuit.Rail) {
	if o == nil {
		return
	}
	if o.onTick != nil {
		o.onTick(t, d, rail)
	}
	// The three channels are always recorded together, so the first
	// one's interval gate decides for all of them, once per instant.
	if o.vcc != nil && o.vcc.Due(t) {
		o.vcc.Record(t, v)
		o.freq.Record(t, d.Freq()/1e6)
		o.mode.Record(t, float64(d.Mode()))
	}
}

// stepCount returns how many Dt steps cover Duration. Durations that are
// an exact multiple of Dt (up to float-division noise) round to the
// nearest count — int truncation used to lose a step whenever the
// quotient landed just under the integer, silently shortening e.g. a
// 2.0 s run at 5 µs by one step. A genuinely fractional quotient rounds
// up, so the tail of Duration=1.0, Dt=3e-6 is simulated rather than
// dropped.
func stepCount(duration, dt float64) int {
	if duration <= 0 || dt <= 0 {
		return 0
	}
	n := duration / dt
	if r := math.Round(n); math.Abs(n-r) <= 1e-9*r {
		return int(r)
	}
	return int(math.Ceil(n))
}
