package programs

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestWorkloadRegistryBuildsEveryName(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no registered workloads")
	}
	for _, n := range names {
		for _, l := range []Layout{DefaultLayout(), UnifiedNVLayout()} {
			w, err := Build(n, l)
			if err != nil {
				t.Errorf("Build(%q): %v", n, err)
				continue
			}
			if w.Source == "" {
				t.Errorf("Build(%q): empty source", n)
			}
			if w.NVBase != l.NVBase || w.RAMBase != l.RAMBase {
				t.Errorf("Build(%q): layout not applied: %+v", n, w)
			}
			// The assembler rejects code that wraps past 0xffff or
			// overlaps earlier segments, so this also proves no layout
			// places a workload either way.
			if _, err := isa.Assemble(w.Source); err != nil {
				t.Errorf("Build(%q) with layout %+v: %v", n, l, err)
			}
		}
	}
}

func TestWorkloadRegistryUnknownName(t *testing.T) {
	_, err := Build("ffft64", DefaultLayout())
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), `unknown workload "ffft64"`) ||
		!strings.Contains(err.Error(), "fft64") {
		t.Errorf("error %q should name the kind and list known names", err)
	}
}
