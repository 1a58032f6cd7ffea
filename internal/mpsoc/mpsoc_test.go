package mpsoc

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestOperatingPointCount(t *testing.T) {
	b := XU4()
	pts := b.OperatingPoints()
	// (4 little-core counts × 7 freqs + 1 off) × (4 big × 10 + 1 off) − 1
	want := (4*7+1)*(4*10+1) - 1
	if len(pts) != want {
		t.Errorf("operating points = %d, want %d", len(pts), want)
	}
}

func TestPowerRangeSpansOrderOfMagnitude(t *testing.T) {
	// The paper: "the power consumption can be modulated by an order of
	// magnitude" (Fig. 5 spans roughly 1.5–18 W).
	b := XU4()
	min, max := PowerRange(b.OperatingPoints())
	if ratio := max / min; ratio < 8 || ratio > 20 {
		t.Errorf("power modulation ratio = %.1f (%.2f–%.2f W), want ≈10×", ratio, min, max)
	}
	if min < 1.0 || min > 2.5 {
		t.Errorf("min power %.2f W outside the Fig. 5 ballpark", min)
	}
	if max < 12 || max > 22 {
		t.Errorf("max power %.2f W outside the Fig. 5 ballpark", max)
	}
}

func TestFPSRangeMatchesFig5(t *testing.T) {
	// Fig. 5's y-axis tops out around 0.22 FPS for the raytracer.
	b := XU4()
	var maxFPS float64
	for _, p := range b.OperatingPoints() {
		maxFPS = math.Max(maxFPS, p.FPS)
	}
	if maxFPS < 0.15 || maxFPS > 0.30 {
		t.Errorf("max FPS = %.3f, want ≈0.2", maxFPS)
	}
}

func TestMoreResourcesNeverHurt(t *testing.T) {
	b := XU4()
	// Adding a core at fixed frequency must not reduce FPS and must not
	// reduce power.
	for cores := 1; cores < 4; cores++ {
		p1 := b.Evaluate(0, 0, cores, 5)
		p2 := b.Evaluate(0, 0, cores+1, 5)
		if p2.FPS < p1.FPS {
			t.Errorf("FPS dropped adding a big core: %d→%d cores %.4f→%.4f",
				cores, cores+1, p1.FPS, p2.FPS)
		}
		if p2.PowerW <= p1.PowerW {
			t.Errorf("power did not rise adding a big core")
		}
	}
	// Raising frequency at fixed cores must raise both.
	for f := 0; f < len(b.Big.FreqHz)-1; f++ {
		p1 := b.Evaluate(0, 0, 4, f)
		p2 := b.Evaluate(0, 0, 4, f+1)
		if p2.FPS <= p1.FPS || p2.PowerW <= p1.PowerW {
			t.Errorf("frequency step %d→%d not monotone", f, f+1)
		}
	}
}

func TestBigCoresFasterButHungrier(t *testing.T) {
	b := XU4()
	little := b.Evaluate(4, len(b.Little.FreqHz)-1, 0, 0)
	big := b.Evaluate(0, 0, 4, len(b.Big.FreqHz)-1)
	if big.FPS <= little.FPS {
		t.Errorf("4×A15 (%.3f FPS) should outperform 4×A7 (%.3f FPS)", big.FPS, little.FPS)
	}
	if big.PowerW <= 2*little.PowerW {
		t.Errorf("4×A15 (%.1f W) should cost far more than 4×A7 (%.1f W)", big.PowerW, little.PowerW)
	}
}

func TestZeroCoresZeroFPS(t *testing.T) {
	b := XU4()
	p := b.Evaluate(0, 0, 0, 0)
	if p.FPS != 0 {
		t.Error("no cores should mean no frames")
	}
	if p.PowerW != b.UncoreW {
		t.Errorf("idle power = %.2f, want uncore %.2f", p.PowerW, b.UncoreW)
	}
}

func TestParetoFrontierProperties(t *testing.T) {
	b := XU4()
	pts := b.OperatingPoints()
	front := ParetoFrontier(pts)
	if len(front) == 0 || len(front) >= len(pts) {
		t.Fatalf("frontier size %d of %d points", len(front), len(pts))
	}
	// Strictly increasing in both power and FPS.
	for i := 1; i < len(front); i++ {
		if front[i].PowerW <= front[i-1].PowerW || front[i].FPS <= front[i-1].FPS {
			t.Fatalf("frontier not strictly monotone at %d", i)
		}
	}
	// No point in the full set dominates a frontier point.
	for _, f := range front {
		for _, p := range pts {
			if p.PowerW < f.PowerW && p.FPS > f.FPS {
				t.Fatalf("frontier point (%.2f W, %.4f FPS) dominated by (%.2f W, %.4f FPS)",
					f.PowerW, f.FPS, p.PowerW, p.FPS)
			}
		}
	}
}

func TestSelectorPicksWithinBudget(t *testing.T) {
	s := &Selector{Frontier: XU4Table().Frontier}
	budgets := []float64{2.0, 4.0, 8.0, 16.0}
	lastFPS := 0.0
	for _, w := range budgets {
		i, ok := s.Pick(w)
		if !ok {
			t.Fatalf("no point fits %.1f W", w)
		}
		op := s.Frontier[i]
		if op.PowerW > w {
			t.Errorf("picked %.2f W for a %.1f W budget", op.PowerW, w)
		}
		if op.FPS < lastFPS {
			t.Errorf("FPS should grow with budget")
		}
		lastFPS = op.FPS
	}
	// Below the minimum point the selector must refuse.
	if _, ok := s.Pick(0.5); ok {
		t.Error("0.5 W budget should be unsatisfiable")
	}
}

func TestSelectorTracksVaryingBudget(t *testing.T) {
	// Sweep a sinusoidal power budget (a harvesting profile) and verify
	// the selected FPS follows it — the power-neutral MPSoC behaviour.
	s := &Selector{Frontier: XU4Table().Frontier}
	var fpsAt []float64
	for i := 0; i <= 100; i++ {
		budget := 2.0 + 14.0*(0.5-0.5*math.Cos(2*math.Pi*float64(i)/100))
		k, ok := s.Pick(budget)
		if !ok {
			t.Fatalf("budget %.1f W unsatisfiable", budget)
		}
		op := s.Frontier[k]
		fpsAt = append(fpsAt, op.FPS)
	}
	// FPS at the crest must far exceed FPS at the trough.
	if fpsAt[50] < 3*fpsAt[0] {
		t.Errorf("FPS crest %.4f vs trough %.4f: should scale with budget", fpsAt[50], fpsAt[0])
	}
}

func TestLabels(t *testing.T) {
	b := XU4()
	op := b.Evaluate(4, 6, 2, 9)
	if got := op.Label(b); got != "4xA7@1.4G+2xA15@2.0G" {
		t.Errorf("label = %q", got)
	}
	op2 := b.Evaluate(0, 0, 1, 0)
	if got := op2.Label(b); got != "1xA15@0.2G" {
		t.Errorf("label = %q", got)
	}
	op3 := b.Evaluate(2, 0, 0, 0)
	if got := op3.Label(b); got != "2xA7@0.2G" {
		t.Errorf("label = %q", got)
	}
}

func TestFrontierCoversLittleAndBig(t *testing.T) {
	// The efficient frontier should use LITTLE cores at the low end and
	// big cores at the high end — the heterogeneity rationale.
	front := ParetoFrontier(XU4().OperatingPoints())
	sort.Slice(front, func(i, j int) bool { return front[i].PowerW < front[j].PowerW })
	lowest, highest := front[0], front[len(front)-1]
	if lowest.BigCores != 0 {
		t.Errorf("cheapest frontier point uses %d big cores; expected LITTLE-only", lowest.BigCores)
	}
	if highest.BigCores != 4 {
		t.Errorf("fastest frontier point uses %d big cores; expected all four", highest.BigCores)
	}
}

func TestSimulateSolarDay(t *testing.T) {
	// A solar-shaped budget over one simulated "day": the selector keeps
	// utilization high, renders frames in proportion to the energy
	// available, and starves only when the budget dips below the cheapest
	// operating point.
	s := &Selector{Frontier: XU4Table().Frontier}
	// 0.5 W overnight rising to 16 W at solar noon, over a 100 s "day".
	budget := func(t float64) float64 {
		sn := math.Sin(math.Pi * t / 100)
		return 0.5 + (16.0-0.5)*sn*sn
	}
	sim := NewSim(s, budget, 100, 0.1)
	sim.Step(0)
	res := sim.Result()
	if res.Steps != 1000 {
		t.Fatalf("steps = %d", res.Steps)
	}
	if res.Frames <= 0 {
		t.Fatal("no frames rendered")
	}
	if res.Starved == 0 {
		t.Error("0.5 W troughs should starve the board (min point ≈1.3 W)")
	}
	if res.Starved > res.Steps/2 {
		t.Errorf("starved %d of %d steps — selector wasting budget", res.Starved, res.Steps)
	}
	if res.Utilization < 0.5 || res.Utilization > 1.0 {
		t.Errorf("utilization = %.2f, want within (0.5, 1.0]", res.Utilization)
	}
	if res.MeanUsedW > res.MeanBudgetW {
		t.Error("used more power than budgeted on average")
	}
	if res.Switches == 0 {
		t.Error("a varying budget must cause operating-point switches")
	}
}

func TestSimulateConstantBudgetNoSwitches(t *testing.T) {
	s := &Selector{Frontier: XU4Table().Frontier}
	sim := NewSim(s, func(float64) float64 { return 8.0 }, 10, 0.1)
	sim.Step(0)
	res := sim.Result()
	if res.Switches != 0 {
		t.Errorf("constant budget switched %d times", res.Switches)
	}
	if res.Starved != 0 {
		t.Error("8 W should always fit")
	}
	// FPS constant at the 8 W point.
	i, _ := s.Pick(8.0)
	op := s.Frontier[i]
	if math.Abs(res.MeanFPS-op.FPS) > 1e-9 {
		t.Errorf("mean FPS %.4f != selected point FPS %.4f", res.MeanFPS, op.FPS)
	}
}

func TestSimulateFramesScaleWithBudget(t *testing.T) {
	s := &Selector{Frontier: XU4Table().Frontier}
	lowSim := NewSim(s, func(float64) float64 { return 3.0 }, 10, 0.1)
	lowSim.Step(0)
	low := lowSim.Result()
	highSim := NewSim(s, func(float64) float64 { return 14.0 }, 10, 0.1)
	highSim.Step(0)
	high := highSim.Result()
	if high.Frames < 2*low.Frames {
		t.Errorf("14 W budget (%.1f frames) should far out-render 3 W (%.1f frames)",
			high.Frames, low.Frames)
	}
}

// refFrontierIndex is the linear scan Sim.Step once ran after every
// pick to recover the chosen point's frontier index.
func refFrontierIndex(front []OperatingPoint, op OperatingPoint) int {
	for i, p := range front {
		if p.PowerW == op.PowerW && p.FPS == op.FPS {
			return i
		}
	}
	return -1
}

// refPick is the policy written out over the full enumeration: the
// highest-FPS point whose power fits the budget, the cheaper one on an
// FPS tie.
func refPick(pts []OperatingPoint, budgetW float64) (OperatingPoint, bool) {
	var best OperatingPoint
	found := false
	for _, p := range pts {
		if p.PowerW > budgetW {
			continue
		}
		if !found || p.FPS > best.FPS || (p.FPS == best.FPS && p.PowerW < best.PowerW) {
			best, found = p, true
		}
	}
	return best, found
}

// TestPickIndexMatchesLinearScan checks the index Pick returns against
// the policy over all 1188 points, located in the frontier by the
// linear scan, at every frontier power and its neighbouring floats, below
// the cheapest point, at zero, negative and infinite budgets.
func TestPickIndexMatchesLinearScan(t *testing.T) {
	pts := XU4().OperatingPoints()
	s := &Selector{Frontier: XU4Table().Frontier}
	minW := s.Frontier[0].PowerW
	budgets := []float64{minW / 2, math.Nextafter(minW, 0), 0, math.Copysign(0, -1), -1, math.Inf(-1), math.Inf(1)}
	for _, p := range s.Frontier {
		budgets = append(budgets, p.PowerW, math.Nextafter(p.PowerW, 0), math.Nextafter(p.PowerW, math.Inf(1)))
	}
	for _, w := range budgets {
		want := -1
		if op, ok := refPick(pts, w); ok {
			want = refFrontierIndex(s.Frontier, op)
			if want < 0 {
				t.Fatalf("budget %v: policy point %+v is not on the frontier", w, op)
			}
		}
		got, ok := s.Pick(w)
		if ok != (want >= 0) || (ok && got != want) {
			t.Fatalf("Pick(%v) = %d, %v; linear scan says %d", w, got, ok, want)
		}
	}
}

// TestXU4TableBuiltOnce pins the shared table to a fresh enumeration,
// and checks that every caller, concurrent ones included, gets the one
// table built on first use without rebuilding it.
func TestXU4TableBuiltOnce(t *testing.T) {
	pts := XU4().OperatingPoints()
	minW, maxW := PowerRange(pts)
	want := &Table{Frontier: ParetoFrontier(pts), Points: len(pts), MinW: minW, MaxW: maxW}
	tab := XU4Table()
	if !reflect.DeepEqual(tab, want) {
		t.Fatalf("XU4Table() differs from a fresh enumeration")
	}
	got := make([]*Table, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = XU4Table()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != tab {
			t.Fatalf("goroutine %d got a different table", i)
		}
	}
	if a := testing.AllocsPerRun(10, func() { XU4Table() }); a != 0 {
		t.Fatalf("XU4Table() allocates %v times per call after the first; it must not rebuild", a)
	}
}
