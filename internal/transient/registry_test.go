package transient

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mcu"
	"repro/internal/programs"
	"repro/internal/registry"
)

// probeDevice builds a throwaway device for factory construction.
func probeDevice(t *testing.T, unified bool) *mcu.Device {
	t.Helper()
	layout, params := programs.DefaultLayout(), mcu.DefaultParams()
	if unified {
		layout, params = programs.UnifiedNVLayout(), mcu.UnifiedNVParams()
	}
	prog, err := isa.Assemble(programs.Fib(5, layout).Source)
	if err != nil {
		t.Fatal(err)
	}
	return mcu.New(params, prog)
}

func TestRuntimeRegistryConstructsEveryName(t *testing.T) {
	for _, name := range RuntimeNames() {
		e, err := LookupRuntime(name)
		if err != nil {
			t.Fatalf("LookupRuntime(%q): %v", name, err)
		}
		mk, got, err := RuntimeFactory(name, 10e-6, nil)
		if err != nil {
			t.Errorf("RuntimeFactory(%q): %v", name, err)
			continue
		}
		if got.UnifiedNV != e.UnifiedNV {
			t.Errorf("RuntimeFactory(%q): UnifiedNV mismatch", name)
		}
		if name == "none" {
			if mk != nil {
				t.Errorf("RuntimeFactory(none) should yield a nil factory")
			}
			continue
		}
		if mk == nil {
			t.Errorf("RuntimeFactory(%q): nil factory", name)
			continue
		}
		rt := mk(probeDevice(t, e.UnifiedNV))
		if rt == nil {
			t.Errorf("factory %q built a nil runtime", name)
		}
	}
}

func TestRuntimeRegistryParamsReachConstructor(t *testing.T) {
	mk, _, err := RuntimeFactory("mementos", 10e-6, registry.Params{"vcheck": 2.7})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := mk(probeDevice(t, false)).(*Mementos)
	if !ok {
		t.Fatal("mementos factory built the wrong type")
	}
	if m.VCheck != 2.7 {
		t.Errorf("vcheck = %g, want 2.7", m.VCheck)
	}
}

func TestRuntimeRegistryUnknownNameAndParam(t *testing.T) {
	if _, _, err := RuntimeFactory("hibernuss", 10e-6, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown runtime") {
		t.Errorf("unknown name: got %v", err)
	}
	if _, _, err := RuntimeFactory("hibernus", 10e-6, registry.Params{"margn": 1.1}); err == nil ||
		!strings.Contains(err.Error(), `"margn"`) {
		t.Errorf("unknown param: got %v", err)
	}
}
