// Package core implements the paper's primary contribution: the taxonomy
// of computing systems from the perspective of (a) how much energy storage
// they contain and (b) whether they keep operating correctly when the
// supply to the computational load is interrupted (Fig. 2).
//
// Each System descriptor captures the properties the taxonomy classifies:
// storage (normalised to seconds of autonomy, since joules only mean
// something relative to the load), whether the system is energy-neutral in
// its intended environment (eqs. 1 and 2), whether it is transient
// (correct despite eq. 2 violations), whether it is power-neutral
// (eq. 3), and where it falls on the continuous/task-based adaptation arc.
// Registry returns the twelve systems the paper places on the figure.
//
// The equation predicates (EnergyNeutralOver, SupplyMaintained,
// PowerNeutralOver) evaluate the taxonomy's defining conditions over
// arbitrary traces. Only this package's tests call them: nothing yet
// checks a simulated run against the class its spec claims.
package core

import (
	"fmt"
	"math"
	"sort"
)

// Adaptation is the continuous/task-based arc of Fig. 2: how the system
// accommodates an intermittent supply relative to its stored energy.
type Adaptation int

// Adaptation classes.
const (
	// AdaptUnconstrained: storage dwarfs any task; the load runs as if
	// battery-powered (right of the arc, traditional systems).
	AdaptUnconstrained Adaptation = iota
	// AdaptTaskBased: storage buffers exactly one task's energy; work is
	// quantised into charge-fire cycles (WISPCam, Monjolo, Gomez).
	AdaptTaskBased
	// AdaptContinuous: storage cannot cover a task; execution is sliced
	// arbitrarily by checkpointing or performance modulation (hibernus,
	// QuickRecall, Mementos, power-neutral systems).
	AdaptContinuous
)

// String returns the class name.
func (a Adaptation) String() string {
	switch a {
	case AdaptUnconstrained:
		return "unconstrained"
	case AdaptTaskBased:
		return "task-based"
	case AdaptContinuous:
		return "continuous"
	}
	return "?"
}

// System is one point in the taxonomy.
type System struct {
	Name string
	Ref  string // citation key in the paper

	StorageJ     float64 // contained energy storage, joules
	TypicalLoadW float64 // representative consumption, watts

	EnergyNeutral bool // satisfies eqs. (1)–(2) in its intended environment
	Transient     bool // operates correctly despite eq. (2) violations
	PowerNeutral  bool // modulates consumption to satisfy eq. (3)
	EnergyDriven  bool // designed from the outset around the energy environment
	Adaptation    Adaptation
}

// AutonomySec returns the storage axis coordinate: how long the contained
// storage sustains the typical load. This is the quantity that makes a
// desktop PC (joules of bulk capacitance, ~100 W load) sit near the
// theoretical minimum while a smartphone (tens of kJ, ~1 W) sits far
// right.
func (s System) AutonomySec() float64 {
	if s.TypicalLoadW <= 0 {
		return math.Inf(1)
	}
	return s.StorageJ / s.TypicalLoadW
}

// Region names the area of Fig. 2 the system falls in.
func (s System) Region() string {
	switch {
	case s.EnergyDriven:
		return "energy-driven"
	default:
		return "traditional"
	}
}

// Axis returns which classification axis the system sits on: systems that
// tolerate supply interruption are on the transient axis; the others live
// (or die) by energy-neutrality.
func (s System) Axis() string {
	if s.Transient {
		return "transient"
	}
	return "energy-neutral"
}

// Registry returns the paper's Fig. 2 systems with representative storage
// and load figures. The absolute numbers are order-of-magnitude estimates;
// the taxonomy only depends on their relative placement.
func Registry() []System {
	return []System{
		{
			Name: "Smartphone", Ref: "—",
			StorageJ: 36e3, TypicalLoadW: 1.0,
			EnergyNeutral: true, Adaptation: AdaptUnconstrained,
		},
		{
			Name: "Desktop PC", Ref: "—",
			StorageJ: 50, TypicalLoadW: 100,
			EnergyNeutral: true, Adaptation: AdaptUnconstrained,
		},
		{
			Name: "Laptop (hibernation)", Ref: "—",
			StorageJ: 180e3, TypicalLoadW: 15,
			EnergyNeutral: true, Transient: true, Adaptation: AdaptUnconstrained,
		},
		{
			Name: "Energy-neutral WSN", Ref: "[3]",
			StorageJ: 19e3, TypicalLoadW: 1e-3,
			EnergyNeutral: true, Adaptation: AdaptUnconstrained,
		},
		{
			Name: "WISPCam", Ref: "[4]",
			StorageJ: 38e-3, TypicalLoadW: 10e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptTaskBased,
		},
		{
			Name: "Gomez energy bursts", Ref: "[5]",
			StorageJ: 0.9e-3, TypicalLoadW: 5e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptTaskBased,
		},
		{
			Name: "Monjolo", Ref: "[6]",
			StorageJ: 5.6e-3, TypicalLoadW: 20e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptTaskBased,
		},
		{
			Name: "Mementos", Ref: "[7]",
			StorageJ: 55e-6, TypicalLoadW: 4.5e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptContinuous,
		},
		{
			Name: "QuickRecall", Ref: "[8]",
			StorageJ: 30e-6, TypicalLoadW: 5e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptContinuous,
		},
		{
			Name: "Hibernus", Ref: "[9]",
			StorageJ: 50e-6, TypicalLoadW: 4.5e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptContinuous,
		},
		{
			Name: "NVP", Ref: "[10]",
			StorageJ: 10e-6, TypicalLoadW: 3e-3,
			Transient: true, EnergyDriven: true, Adaptation: AdaptContinuous,
		},
		{
			Name: "Power-neutral MPSoC", Ref: "[11]",
			StorageJ: 0.3, TypicalLoadW: 6,
			EnergyNeutral: true, PowerNeutral: true, EnergyDriven: true,
			Adaptation: AdaptContinuous,
		},
		{
			Name: "hibernus-PN", Ref: "[14]",
			StorageJ: 50e-6, TypicalLoadW: 4.5e-3,
			Transient: true, PowerNeutral: true, EnergyDriven: true,
			Adaptation: AdaptContinuous,
		},
	}
}

// ByAutonomy returns the systems sorted by ascending autonomy — the
// left-to-right order of Fig. 2's storage axis.
func ByAutonomy(systems []System) []System {
	out := make([]System, len(systems))
	copy(out, systems)
	sort.Slice(out, func(i, j int) bool {
		return out[i].AutonomySec() < out[j].AutonomySec()
	})
	return out
}

// Validate checks the structural invariants of a system descriptor.
func (s System) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: unnamed system")
	}
	if s.StorageJ < 0 || s.TypicalLoadW < 0 {
		return fmt.Errorf("core: %s: negative storage or load", s.Name)
	}
	if s.PowerNeutral && s.Adaptation != AdaptContinuous {
		return fmt.Errorf("core: %s: power-neutral systems modulate continuously", s.Name)
	}
	if !s.EnergyNeutral && !s.Transient {
		return fmt.Errorf("core: %s: neither energy-neutral nor transient — it fails its own environment", s.Name)
	}
	if s.EnergyDriven && s.Adaptation == AdaptUnconstrained {
		return fmt.Errorf("core: %s: energy-driven systems are shaped by the energy environment", s.Name)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Equation predicates over traces
// ---------------------------------------------------------------------------

// EnergyNeutralOver evaluates eq. (1): whether the energy harvested and
// consumed over the window [t0, t0+T] balance within tolerance tol
// (relative). ph and pc are instantaneous power functions; integration is
// by midpoint rule at step dt.
func EnergyNeutralOver(ph, pc func(t float64) float64, t0, T, dt, tol float64) bool {
	var eh, ec float64
	for t := t0; t < t0+T; t += dt {
		m := t + dt/2
		eh += ph(m) * dt
		ec += pc(m) * dt
	}
	if eh <= 0 {
		return ec <= 0
	}
	return math.Abs(eh-ec)/eh <= tol
}

// SupplyMaintained evaluates eq. (2): V_CC(t) ≥ V_min for all samples in
// [t0, t1].
func SupplyMaintained(v func(t float64) float64, vMin, t0, t1, dt float64) bool {
	for t := t0; t <= t1; t += dt {
		if v(t) < vMin {
			return false
		}
	}
	return true
}

// PowerNeutralOver evaluates eq. (3) at the practical timescale: over each
// window of length w in [t0, t1], harvested and consumed energy must agree
// within tol. This is eq. (1) with T shrunk to the smallest interval the
// system's residual storage can smooth — the paper's reading of
// "infinitesimally small in practice".
func PowerNeutralOver(ph, pc func(t float64) float64, t0, t1, w, dt, tol float64) bool {
	for ws := t0; ws+w <= t1; ws += w {
		if !EnergyNeutralOver(ph, pc, ws, w, dt, tol) {
			return false
		}
	}
	return true
}
