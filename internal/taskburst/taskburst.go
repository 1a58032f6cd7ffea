// Package taskburst implements the task-based transient systems on the
// right side of the paper's continuous/task-based adaptation arc (§II.B):
// systems that buffer just enough energy in a small capacitor to complete
// one atomic task, then fire. WISPCam [4] (one photo per 6 mF charge),
// Gomez et al.'s dynamic energy-burst scaling [5] (one sample/transmit
// burst per 80 µF charge) and Monjolo [6] (one wireless ping per 500 µF
// charge — where the ping *rate* is itself the power measurement) are all
// instances.
//
// The model: harvested power charges the capacitor; when the stored energy
// above the operating floor covers the task (voltage reaches VFire), the
// task executes and drains the capacitor back toward the floor. Between
// firings the system is effectively off — eq. (2) is violated constantly,
// and the application is designed so that this does not matter, which is
// what places these systems in the transient class of the taxonomy.
package taskburst

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/source"
	"repro/internal/units"
)

// Task is an atomic unit of work with a fixed energy cost.
type Task struct {
	Name    string
	EnergyJ float64
}

// Node is a task-based transient device.
type Node struct {
	Cap     *circuit.Capacitor
	Harvest source.PowerSource

	Task   Task
	VFire  float64 // fire when the capacitor reaches this voltage
	VFloor float64 // minimum useful operating voltage
	Eta    float64 // usable fraction of stored energy (converter losses)

	Events []float64 // firing timestamps

	// Observe, if non-nil, is called by Sim.Step after every step with
	// the time, the capacitor voltage, and whether a task fired on this
	// step. It is a pure observer — tracing hooks in here.
	Observe func(t, v float64, fired bool)
}

// NewNode builds a node and sizes VFire so that the energy stored between
// VFloor and VFire, de-rated by eta, covers exactly one task (plus a 5 %
// guard band).
func NewNode(c float64, task Task, harvest source.PowerSource, vFloor, vMax, eta float64) (*Node, error) {
	n := &Node{
		Cap:     circuit.NewCapacitor(c, 0),
		Harvest: harvest,
		Task:    task,
		VFloor:  vFloor,
		Eta:     eta,
	}
	need := task.EnergyJ * 1.05 / eta
	vFire := math.Sqrt(2*need/c + vFloor*vFloor)
	if vFire > vMax {
		return nil, ErrCapacitorTooSmall{C: c, Need: need, VMax: vMax, VFloor: vFloor}
	}
	n.VFire = vFire
	n.Cap.MaxV = vMax
	return n, nil
}

// ErrCapacitorTooSmall reports a storage sizing failure: the task cannot
// fit in the capacitor below its voltage rating.
type ErrCapacitorTooSmall struct {
	C, Need, VMax, VFloor float64
}

// Error implements error.
func (e ErrCapacitorTooSmall) Error() string {
	return "taskburst: capacitor " + units.Format(e.C, "F") +
		" cannot hold a " + units.Format(e.Need, "J") + " task below " +
		units.Format(e.VMax, "V")
}

// Sim charges a node from its harvester over a duration at step dt,
// firing tasks as energy permits; firing timestamps accumulate in the
// node's Events. It advances in bounded chunks so a caller can
// interleave cancellation checks or capture a checkpoint between chunks,
// with its full state exposed through State/Restore. The per-step
// arithmetic is identical to an uninterrupted run.
type Sim struct {
	n            *Node
	duration, dt float64
	t            float64

	// harvest samples n.Harvest along the step grid, reading the
	// shared sample table where it can. The first Step after NewSim or
	// Restore positions it at the clock.
	harvest    source.SampleCursor
	harvestSet bool
}

// NewSim prepares a stepper for n over duration seconds at step dt.
func NewSim(n *Node, duration, dt float64) *Sim {
	return &Sim{n: n, duration: duration, dt: dt}
}

// Done reports whether the charge/fire loop has covered the duration.
func (s *Sim) Done() bool { return !(s.t < s.duration) }

// Step advances up to maxSteps integration steps (all remaining when
// maxSteps ≤ 0).
func (s *Sim) Step(maxSteps int) {
	n := s.n
	dt := s.dt
	const maxI = 1.0
	if !s.harvestSet {
		s.harvest = source.NewPowerCursor(n.Harvest, dt, s.t, s.duration)
		s.harvestSet = true
	}
	for k := 0; (maxSteps <= 0 || k < maxSteps) && s.t < s.duration; k++ {
		t := s.t
		p := s.harvest.Sample(t)
		if p > 0 {
			v := max(n.Cap.V, 0.1)
			i := min(p/v, maxI)
			n.Cap.Step(i, dt)
		} else {
			n.Cap.Step(0, dt)
		}
		fired := false
		if n.Cap.V >= n.VFire {
			drawn := n.Cap.DrawEnergy(n.Task.EnergyJ/n.Eta, n.VFloor)
			if drawn >= n.Task.EnergyJ/n.Eta*0.999 {
				n.Events = append(n.Events, t)
				fired = true
			}
		}
		if n.Observe != nil {
			n.Observe(t, n.Cap.V, fired)
		}
		s.t += dt
	}
}

// SimState is the complete serialisable state of a Sim plus the mutable
// node state the loop evolves: the clock, the capacitor's voltage and
// clamp accounting, and the firing log.
type SimState struct {
	T        float64
	V        float64
	ClampedJ float64
	Events   []float64
}

// State captures the stepper for later Restore.
func (s *Sim) State() SimState {
	return SimState{T: s.t, V: s.n.Cap.V, ClampedJ: s.n.Cap.ClampedJ, Events: s.n.Events}
}

// Restore rewinds the stepper and its node to a captured state. The node
// must have been rebuilt identically to the one that produced the state.
func (s *Sim) Restore(st SimState) {
	s.t = st.T
	s.harvestSet = false
	s.n.Cap.V = st.V
	s.n.Cap.ClampedJ = st.ClampedJ
	s.n.Events = append([]float64(nil), st.Events...)
}

// Rate returns the mean firing rate in events per second over [t0, t1].
func (n *Node) Rate(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	count := 0
	for _, e := range n.Events {
		if e >= t0 && e < t1 {
			count++
		}
	}
	return float64(count) / (t1 - t0)
}
