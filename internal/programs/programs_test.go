package programs

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// runWorkload assembles and executes a workload on a flat bus until the
// first SysDone, returning the result in r1 and total cycles.
func runWorkload(t *testing.T, w *Workload, maxSteps int) (uint16, uint64) {
	t.Helper()
	p, err := isa.Assemble(w.Source)
	if err != nil {
		t.Fatalf("%s: assemble: %v", w.Name, err)
	}
	ram := &isa.FlatRAM{}
	p.LoadInto(ram)
	c := &isa.Core{Bus: ram}
	c.Reset(p.Entry)
	var result uint16
	done := false
	c.Sys = func(code uint16, core *isa.Core) {
		if code == SysDone {
			result = core.R[1]
			done = true
			core.Halted = true
		}
	}
	for i := 0; i < maxSteps && !done; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("%s: step %d: %v", w.Name, i, err)
		}
		if c.Halted && !done {
			t.Fatalf("%s: halted before completing (PC=0x%04x)", w.Name, c.PC)
		}
	}
	if !done {
		t.Fatalf("%s: did not finish in %d steps", w.Name, maxSteps)
	}
	return result, c.Cycles
}

func TestCRC16MatchesReference(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		w := CRC16(n, DefaultLayout())
		got, _ := runWorkload(t, w, 2_000_000)
		if got != w.Expected {
			t.Errorf("crc16-%d: guest=0x%04x reference=0x%04x", n, got, w.Expected)
		}
	}
}

func TestCRC16ReferenceKnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1 (standard check value).
	if got := crc16Ref([]byte("123456789")); got != 0x29b1 {
		t.Errorf("crc16Ref check value = 0x%04x, want 0x29b1", got)
	}
}

func TestFFTMatchesReference(t *testing.T) {
	for _, n := range []int{8, 16, 64} {
		w := FFT(n, DefaultLayout())
		got, _ := runWorkload(t, w, 10_000_000)
		if got != w.Expected {
			t.Errorf("fft-%d: guest=0x%04x reference=0x%04x", n, got, w.Expected)
		}
	}
}

func TestFFTSpectrumSanity(t *testing.T) {
	// The reference FFT (which the guest matches bit-exactly) must put its
	// spectral energy at the two input tones (bins 3 and 5) — this guards
	// against a "checksums agree but both are garbage" failure.
	n := 64
	brev, twr, twi := fftTables(n)
	re := fftInput(n)
	im := make([]int16, n)
	for i := 0; i < n; i++ {
		j := int(brev[i])
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		step := n / length
		for base := 0; base < n; base += length {
			k := 0
			for j := 0; j < half; j++ {
				i1, i2 := base+j, base+j+half
				br, bi := re[i2], im[i2]
				wr, wi := twr[k], twi[k]
				tr := qmul15(br, wr) - qmul15(bi, wi)
				ti := qmul15(br, wi) + qmul15(bi, wr)
				tr >>= 1
				ti >>= 1
				ar := re[i1] >> 1
				ai := im[i1] >> 1
				re[i1], im[i1] = ar+tr, ai+ti
				re[i2], im[i2] = ar-tr, ai-ti
				k += step
			}
		}
	}
	mag := func(i int) float64 {
		return math.Hypot(float64(re[i]), float64(im[i]))
	}
	// Bins 3 and 5 (and conjugates 59, 61) must dominate everything else.
	peak := math.Max(mag(3), mag(5))
	for i := 0; i < n; i++ {
		switch i {
		case 3, 5, n - 3, n - 5:
			continue
		}
		if mag(i) > peak/4 {
			t.Errorf("bin %d magnitude %.0f too close to tone peak %.0f", i, mag(i), peak)
		}
	}
}

func TestFFTSizeValidation(t *testing.T) {
	for _, bad := range []int{0, 7, 12, 512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT(%d) should panic", bad)
				}
			}()
			FFT(bad, DefaultLayout())
		}()
	}
}

func TestSieveMatchesReference(t *testing.T) {
	for _, limit := range []int{100, 1000} {
		w := Sieve(limit, DefaultLayout())
		got, _ := runWorkload(t, w, 5_000_000)
		if got != w.Expected {
			t.Errorf("sieve-%d: guest=%d reference=%d", limit, got, w.Expected)
		}
	}
	// Known value: 168 primes below 1000.
	if sieveRef(1000) != 168 {
		t.Errorf("sieveRef(1000) = %d, want 168", sieveRef(1000))
	}
	if sieveRef(100) != 25 {
		t.Errorf("sieveRef(100) = %d, want 25", sieveRef(100))
	}
}

func TestSieveLimitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized sieve should panic")
		}
	}()
	Sieve(100000, DefaultLayout())
}

func TestFibMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 10, 24, 47} {
		w := Fib(n, DefaultLayout())
		got, _ := runWorkload(t, w, 100_000)
		if got != w.Expected {
			t.Errorf("fib-%d: guest=%d reference=%d", n, got, w.Expected)
		}
	}
	if fibRef(10) != 55 {
		t.Errorf("fibRef(10) = %d, want 55", fibRef(10))
	}
}

func TestWorkloadsRunForever(t *testing.T) {
	// After SysDone, execution restarts and produces the same result again
	// (iteration counter in r2 increments).
	w := Fib(20, DefaultLayout())
	p, err := isa.Assemble(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	ram := &isa.FlatRAM{}
	p.LoadInto(ram)
	c := &isa.Core{Bus: ram}
	c.Reset(p.Entry)
	var results []uint16
	var iters []uint16
	c.Sys = func(code uint16, core *isa.Core) {
		if code == SysDone {
			results = append(results, core.R[1])
			iters = append(iters, core.R[2])
			if len(results) >= 3 {
				core.Halted = true
			}
		}
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d completions, want 3", len(results))
	}
	for i, r := range results {
		if r != w.Expected {
			t.Errorf("iteration %d result = %d, want %d", i, r, w.Expected)
		}
	}
	if iters[0] != 1 || iters[1] != 2 || iters[2] != 3 {
		t.Errorf("iteration counters = %v, want [1 2 3]", iters)
	}
}

func TestUnifiedNVLayoutPlacesBuffersHigh(t *testing.T) {
	l := UnifiedNVLayout()
	if l.RAMBase < DefaultNVBase {
		t.Error("unified layout should place working buffers in NV space")
	}
	w := FFT(16, l)
	got, _ := runWorkload(t, w, 10_000_000)
	if got != w.Expected {
		t.Errorf("fft under unified layout: got 0x%04x want 0x%04x", got, w.Expected)
	}
}

func TestWorkloadCycleCountsReasonable(t *testing.T) {
	// FFT-64 should take vastly more cycles than fib-24; both nonzero.
	_, fibCycles := runWorkload(t, Fib(24, DefaultLayout()), 100_000)
	_, fftCycles := runWorkload(t, FFT(64, DefaultLayout()), 10_000_000)
	if fibCycles == 0 || fftCycles == 0 {
		t.Fatal("cycle accounting missing")
	}
	if fftCycles < 20*fibCycles {
		t.Errorf("fft=%d cycles vs fib=%d: expected ≥20×", fftCycles, fibCycles)
	}
}

func TestCRCDataDeterministic(t *testing.T) {
	a := crcTestData(64)
	b := crcTestData(64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("test data must be deterministic")
		}
	}
}

func TestMatMulMatchesReference(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		w := MatMul(n, DefaultLayout())
		got, _ := runWorkload(t, w, 20_000_000)
		if got != w.Expected {
			t.Errorf("matmul-%d: guest=0x%04x reference=0x%04x", n, got, w.Expected)
		}
	}
}

func TestMatMulSizeValidation(t *testing.T) {
	for _, bad := range []int{0, 3, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatMul(%d) should panic", bad)
				}
			}()
			MatMul(bad, DefaultLayout())
		}()
	}
}

func TestMatMulUnifiedLayout(t *testing.T) {
	w := MatMul(8, UnifiedNVLayout())
	got, _ := runWorkload(t, w, 20_000_000)
	if got != w.Expected {
		t.Errorf("matmul unified: got 0x%04x want 0x%04x", got, w.Expected)
	}
}
