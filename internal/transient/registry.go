// Registry of transient-computing runtimes by name: the checkpointing
// schemes a scenario spec or the ehsim CLI can attach to the simulated
// device. Each entry documents its tunables and whether it requires the
// unified-FRAM device configuration (QuickRecall-style systems), so the
// scenario compiler can pick the matching memory layout automatically.
//
// The registry is open: sibling policy packages register their combined
// runtimes here too (powerneutral adds "hibernus-pn"), which is what
// lets one namespace cover the whole taxonomy.
package transient

import (
	"repro/internal/mcu"
	"repro/internal/registry"
)

// RuntimeEntry describes one registered runtime kind.
type RuntimeEntry struct {
	Desc      string
	UnifiedNV bool // requires UnifiedNVParams/UnifiedNVLayout
	Params    []registry.ParamDoc
	// Make builds the runtime for a device on a rail of capacitance c
	// farads. A nil Make means "no runtime" (the unprotected baseline).
	Make func(d *mcu.Device, c float64, p registry.Params) mcu.Runtime
}

var runtimes = registry.New[RuntimeEntry]("runtime")

// RegisterRuntime adds a runtime under name (panics on duplicates).
func RegisterRuntime(name string, e RuntimeEntry) { runtimes.Register(name, e) }

// RuntimeNames returns every registered runtime name, sorted.
func RuntimeNames() []string { return runtimes.Names() }

// LookupRuntime returns the entry for name, or an error listing the
// known names.
func LookupRuntime(name string) (RuntimeEntry, error) { return runtimes.Get(name) }

// RuntimeFactory resolves name into a lab.Setup.MakeRuntime-shaped
// factory (nil for the bare-device baseline) plus the entry's unified-NV
// requirement. Params are validated against the entry's docs.
func RuntimeFactory(name string, c float64, p registry.Params) (func(d *mcu.Device) mcu.Runtime, RuntimeEntry, error) {
	e, err := runtimes.Get(name)
	if err != nil {
		return nil, RuntimeEntry{}, err
	}
	full, err := registry.Resolve("runtime", name, e.Params, p)
	if err != nil {
		return nil, RuntimeEntry{}, err
	}
	if e.Make == nil {
		return nil, e, nil
	}
	return func(d *mcu.Device) mcu.Runtime { return e.Make(d, c, full) }, e, nil
}

// hibernusParams is the shared tunable set of the eq. (4)-calibrated
// runtimes.
var hibernusParams = []registry.ParamDoc{
	{Key: "margin", Default: 1.1, Desc: "guard margin on the eq. (4) V_H"},
	{Key: "vrheadroom", Default: 0.35, Desc: "V_R − V_H headroom (V)"},
}

func init() {
	RegisterRuntime("none", RuntimeEntry{
		Desc: "no runtime: the unprotected restart-on-every-outage baseline",
	})
	RegisterRuntime("hibernus", RuntimeEntry{
		Desc:   "interrupt-driven snapshot at V_H, restore/wake at V_R (eq. 4)",
		Params: hibernusParams,
		Make: func(d *mcu.Device, c float64, p registry.Params) mcu.Runtime {
			return NewHibernus(d, c, p["margin"], p["vrheadroom"])
		},
	})
	RegisterRuntime("hibernus-periph", RuntimeEntry{
		Desc:   "hibernus whose snapshots also cover the peripheral bank's registers (same as hibernus without a bank)",
		Params: hibernusParams,
		Make: func(d *mcu.Device, c float64, p registry.Params) mcu.Runtime {
			// Set before NewHibernus: eq. (4) sizes V_H from the
			// snapshot, aux bytes included.
			d.SnapshotAux = true
			return NewHibernus(d, c, p["margin"], p["vrheadroom"])
		},
	})
	RegisterRuntime("hibernus++", RuntimeEntry{
		Desc: "self-calibrating hibernus: learns V_H/V_R online, no design-time characterisation",
		Make: func(d *mcu.Device, _ float64, _ registry.Params) mcu.Runtime {
			return NewHibernusPP(d)
		},
	})
	RegisterRuntime("mementos", RuntimeEntry{
		Desc: "compile-time checkpoints (CHK sites), snapshot when V_CC < vcheck",
		Params: []registry.ParamDoc{
			{Key: "vcheck", Default: 2.2, Desc: "checkpoint-site voltage threshold (V)"},
		},
		Make: func(d *mcu.Device, _ float64, p registry.Params) mcu.Runtime {
			return NewMementos(d, p["vcheck"])
		},
	})
	RegisterRuntime("quickrecall", RuntimeEntry{
		Desc:      "unified-FRAM registers-only snapshots",
		UnifiedNV: true,
		Params:    hibernusParams,
		Make: func(d *mcu.Device, c float64, p registry.Params) mcu.Runtime {
			return NewQuickRecall(d, c, p["margin"], p["vrheadroom"])
		},
	})
	RegisterRuntime("nvp", RuntimeEntry{
		Desc:   "non-volatile-processor model: near-instant hardware backup of registers",
		Params: hibernusParams,
		Make: func(d *mcu.Device, c float64, p registry.Params) mcu.Runtime {
			return NewNVP(d, c, p["margin"], p["vrheadroom"])
		},
	})
}
