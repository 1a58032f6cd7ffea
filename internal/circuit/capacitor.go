// Package circuit provides the electrical substrate between a harvesting
// source and a computational load: storage elements (capacitors and
// batteries; rectifiers are in package source) and a fixed-step rail
// solver that ties them together.
//
// The paper's taxonomy is fundamentally about how much energy storage sits
// on this rail (Fig. 2's horizontal axis) and whether the load tolerates
// the rail collapsing (eq. 2). Every experiment therefore runs on a Rail:
// a single storage node charged by a source and discharged by loads, whose
// voltage the transient runtimes poll to decide when to snapshot.
package circuit

import "repro/internal/units"

// Capacitor models the storage node capacitance: the sum of deliberate
// storage (e.g. a 6 mF supercapacitor) and the parasitic/decoupling
// capacitance that is always present (the paper's "practical minimum").
type Capacitor struct {
	C        float64 // farads
	V        float64 // present voltage
	ESR      float64 // equivalent series resistance, ohms (informational)
	LeakR    float64 // parallel leakage resistance, ohms; 0 = no leakage
	MaxV     float64 // overvoltage clamp (zener/protection); 0 = unclamped
	ClampedJ float64 // cumulative energy shed by the clamp, joules
}

// NewCapacitor returns a capacitor of c farads starting at v0 volts.
func NewCapacitor(c, v0 float64) *Capacitor {
	return &Capacitor{C: c, V: v0}
}

// Energy returns the stored energy C·V²/2 in joules.
func (c *Capacitor) Energy() float64 { return units.CapacitorEnergy(c.C, c.V) }

// Step integrates the node for dt seconds with net current iNet flowing in
// (amperes; negative discharges). Leakage is applied internally. The
// voltage is clamped to [0, MaxV].
func (c *Capacitor) Step(iNet, dt float64) {
	if c.C <= 0 {
		return
	}
	if c.LeakR > 0 {
		iNet -= c.V / c.LeakR
	}
	c.V += iNet * dt / c.C
	if c.V < 0 {
		c.V = 0
	}
	if c.MaxV > 0 && c.V > c.MaxV {
		c.clamp()
	}
}

// clamp sheds the energy above MaxV into the protection clamp — split
// out of Step so the common (unclamped) step stays inlinable.
func (c *Capacitor) clamp() {
	c.ClampedJ += units.EnergyBetween(c.C, c.V, c.MaxV)
	c.V = c.MaxV
}

// DrawEnergy removes e joules from the capacitor instantaneously (used for
// event-style consumption such as a packet transmission). It returns the
// energy actually removed (limited by what is stored above vFloor).
func (c *Capacitor) DrawEnergy(e, vFloor float64) float64 {
	if e <= 0 || c.C <= 0 {
		return 0
	}
	avail := units.EnergyBetween(c.C, c.V, vFloor)
	if avail <= 1e-18 { // below any physically meaningful budget
		return 0
	}
	if e > avail {
		e = avail
	}
	newE := units.CapacitorEnergy(c.C, c.V) - e
	c.V = units.CapacitorVoltage(c.C, newE)
	if c.V < vFloor {
		c.V = vFloor
	}
	return e
}

// Battery is a simple state-of-charge energy reservoir with separate
// charge/discharge efficiencies. It is sufficient for the energy-neutral
// experiments, where what matters is eq. (1) bookkeeping over hours–days.
type Battery struct {
	CapacityJ   float64 // full-charge energy, joules
	SoC         float64 // state of charge, 0..1
	EtaCharge   float64 // fraction of input energy stored
	EtaDischrg  float64 // fraction of stored energy delivered
	ThroughputJ float64 // cumulative energy cycled through (wear proxy)
}

// NewBattery returns a battery of capacityJ joules at the given initial
// state of charge, with typical Li-ion-ish parameters.
func NewBattery(capacityJ, soc float64) *Battery {
	return &Battery{
		CapacityJ:  capacityJ,
		SoC:        units.Clamp(soc, 0, 1),
		EtaCharge:  0.95,
		EtaDischrg: 0.95,
	}
}

// Charge adds e joules of input energy; the stored amount is scaled by the
// charge efficiency and clamped at capacity. It returns the energy that
// could not be accepted (spill).
func (b *Battery) Charge(e float64) (spill float64) {
	if e <= 0 || b.CapacityJ <= 0 {
		return 0
	}
	stored := e * b.EtaCharge
	room := (1 - b.SoC) * b.CapacityJ
	if stored > room {
		spill = (stored - room) / b.EtaCharge
		stored = room
	}
	b.SoC += stored / b.CapacityJ
	b.ThroughputJ += stored
	return spill
}

// Discharge removes enough stored energy to deliver e joules at the
// terminals, honouring the discharge efficiency. It returns the energy
// actually delivered (less than e if the battery empties).
func (b *Battery) Discharge(e float64) float64 {
	if e <= 0 || b.CapacityJ <= 0 || b.EtaDischrg <= 0 {
		return 0
	}
	need := e / b.EtaDischrg
	have := b.SoC * b.CapacityJ
	if need > have {
		need = have
	}
	b.SoC -= need / b.CapacityJ
	b.ThroughputJ += need
	return need * b.EtaDischrg
}
