package source

import (
	"math"
	"math/rand"
	"testing"
)

// The samplers and methods share their arithmetic, so comparing one
// against the other (TestSamplersMatchRegistry) cannot catch a fast
// path that is wrong in both. The references below are the plain
// formulas, written out here independently of the implementation: the
// square wave reduces its phase with math.Mod, and the PV cell always
// runs math.Mod and the flicker sines.

func refSquare(high, on, off, t float64) float64 {
	period := on + off
	if period <= 0 {
		return high
	}
	phase := math.Mod(t, period)
	if phase < 0 {
		phase += period
	}
	if phase < on {
		return high
	}
	return 0
}

func refPVCurrent(p *Photovoltaic, t float64) float64 {
	hour := math.Mod(t/3600.0, 24)
	if hour < 0 {
		hour += 24
	}
	day := smoothStep(hour, p.DawnHour, p.EdgeHours) *
		(1 - smoothStep(hour, p.DuskHour, p.EdgeHours))
	i := p.BaseCurrent + (p.PeakCurrent-p.BaseCurrent)*day
	if p.Flicker > 0 {
		r := math.Sin(2*math.Pi*t/1700) * math.Sin(2*math.Pi*t/4100)
		i *= 1 + p.Flicker*r*day
	}
	return i
}

// sameBits is bit equality, with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specialTimes are the probes every reference comparison includes:
// signed zeros, subnormals, negatives, huge and non-finite times.
func specialTimes() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
		-math.SmallestNonzeroFloat64, -1e-9, -0.004, -0.154, -1, -12345.678, -1e12,
		1e12, 1e20, 1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
}

// ulpProbes appends x and its 16 floating-point neighbours on each side.
func ulpProbes(dst []float64, x float64) []float64 {
	dst = append(dst, x)
	up, down := x, x
	for i := 0; i < 16; i++ {
		up = math.Nextafter(up, math.Inf(1))
		down = math.Nextafter(down, math.Inf(-1))
		dst = append(dst, up, down)
	}
	return dst
}

// edgeCycles is the set of period indices whose edges are probed: every
// cycle up to 500, a seeded spread up to 10⁶, and 10⁶ itself.
func edgeCycles() []float64 {
	ns := make([]float64, 0, 1002)
	for n := 0; n <= 500; n++ {
		ns = append(ns, float64(n))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ns = append(ns, float64(rng.Intn(1_000_000)))
	}
	return append(ns, 1_000_000)
}

func assertSquareMatchesRef(t *testing.T, s *SquareWaveVoltage, probes []float64) {
	t.Helper()
	fn := VoltageFn(s)
	for _, tt := range probes {
		want := refSquare(s.High, s.OnTime, s.OffTime, tt)
		if got := s.Voltage(tt); !sameBits(got, want) {
			t.Fatalf("on=%g off=%g: Voltage(%v) = %v, reference %v", s.OnTime, s.OffTime, tt, got, want)
		}
		if got := fn(tt); !sameBits(got, want) {
			t.Fatalf("on=%g off=%g: VoltageFn(%v) = %v, reference %v", s.OnTime, s.OffTime, tt, got, want)
		}
	}
}

// TestSquareWaveMatchesModReference probes every on→off and off→on edge
// within ±16 ulps for cycles up to 10⁶, plus random, negative and
// non-finite times, on the curated supplies and on awkward and
// degenerate on/off pairs.
func TestSquareWaveMatchesModReference(t *testing.T) {
	waves := [][2]float64{
		{0.004, 0.150}, // registry default, lab-mementos-square
		{0.025, 0.025}, // transient-fram-vs-sram
		{0.7, 0.3},
		{0.25, 0.75},
		{0.1, 0.2}, // period 0.30000000000000004
		{1e-3, 7e-3 / 3},
		{5e-6, 5e-6},
		{1e-12, 1},
		{3, 1e-9},
		{1e300, 1e300},
		{0, 1},           // never on
		{1, 0},           // on == period: always on
		{1, -0.5},        // on > period
		{-0.5, 1},        // on < 0
		{1e-310, 1e-310}, // subnormal period, 1/period overflows
		{4e-309, 3e-309}, // subnormal period, 1/period finite
		{0, 0},           // zero period
		{-1, 0.5},        // negative period
	}
	rng := rand.New(rand.NewSource(2))
	for _, w := range waves {
		s := &SquareWaveVoltage{High: 3.3, OnTime: w[0], OffTime: w[1]}
		period := w[0] + w[1]
		probes := specialTimes()
		for _, n := range edgeCycles() {
			probes = ulpProbes(probes, n*period)
			probes = ulpProbes(probes, n*period+w[0])
			probes = append(probes, rng.Float64()*1e6*period, -rng.Float64()*1e6*period)
		}
		assertSquareMatchesRef(t, s, probes)
	}
}

// FuzzSquareWave checks the square wave's method and sampler against
// the math.Mod reference for arbitrary times and on/off lengths.
func FuzzSquareWave(f *testing.F) {
	f.Fuzz(func(t *testing.T, tt, on, off float64) {
		assertSquareMatchesRef(t, &SquareWaveVoltage{High: 3.3, OnTime: on, OffTime: off}, []float64{tt})
	})
}

func assertPVMatchesRef(t *testing.T, p *Photovoltaic, probes []float64) {
	t.Helper()
	fn := PowerFn(p)
	for _, tt := range probes {
		want := refPVCurrent(p, tt)
		if got := p.Current(tt); !sameBits(got, want) {
			t.Fatalf("%+v: Current(%v) = %v, reference %v", *p, tt, got, want)
		}
		if got, wantP := fn(tt), want*p.OpVoltage; !sameBits(got, wantP) {
			t.Fatalf("%+v: PowerFn(%v) = %v, reference %v", *p, tt, got, wantP)
		}
	}
}

// TestPhotovoltaicMatchesReference compares the PV cell against the
// formula with an unconditional math.Mod and flicker over ten days,
// across every hour boundary, at every day wrap, at day wraps far past
// the tenth and around the 2⁴⁸-hour end of the exact reduction, and at
// negative, huge and non-finite times, for flicker values that do and
// do not allow the night-time skip.
func TestPhotovoltaicMatchesReference(t *testing.T) {
	const days = 10
	probes := specialTimes()
	for tt := 0.0; tt <= days*24*3600; tt += 4.1 {
		probes = append(probes, tt)
	}
	for h := 0; h <= days*24; h++ {
		probes = ulpProbes(probes, float64(h)*3600)
	}
	for _, day := range []float64{11, 100, 365, 1000, 12345, 1e6, 1e9, 0x1p40, 0x1p48/24 - 1, 0x1p48 / 24} {
		probes = ulpProbes(probes, day*24*3600)
	}
	for _, x := range []float64{0x1p48 * 3600, -1e300, 1e300, 2.8e307, 2.9e307} {
		probes = ulpProbes(probes, x)
	}
	// The second shape is lit across midnight, so hour 0 and hour 24
	// give different harvests.
	shapes := [][3]float64{{7, 19, 1.5}, {0.5, 23.9, 2}}
	for _, shape := range shapes {
		for _, flicker := range []float64{0.02, 0, -0.5, 1, 1e300, 1e301, math.MaxFloat64, math.Inf(1), math.NaN()} {
			p := DefaultPhotovoltaic()
			p.DawnHour, p.DuskHour, p.EdgeHours = shape[0], shape[1], shape[2]
			p.Flicker = flicker
			assertPVMatchesRef(t, p, probes)
		}
	}
}

// FuzzPhotovoltaic checks the PV cell's method and sampler against the
// math.Mod reference for arbitrary times and dawn/dusk/edge shapes.
func FuzzPhotovoltaic(f *testing.F) {
	f.Add(0.0, 7.0, 19.0, 1.5)
	f.Add(24*3600.0, 0.5, 23.9, 2.0)
	f.Add(math.Nextafter(48*3600, 0), 0.5, 23.9, 2.0)
	f.Add(9.5*24*3600, 7.0, 19.0, 0.0)
	f.Add(0x1p48*3600, 23.0, 1.0, 30.0)
	f.Add(-1e5, 7.0, 19.0, 1.5)
	f.Fuzz(func(t *testing.T, tt, dawn, dusk, edge float64) {
		p := DefaultPhotovoltaic()
		p.DawnHour, p.DuskHour, p.EdgeHours = dawn, dusk, edge
		assertPVMatchesRef(t, p, []float64{tt})
	})
}
