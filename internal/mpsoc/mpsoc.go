// Package mpsoc models the power-neutral MPSoC of the paper's Fig. 5 and
// reference [11]: an ODROID XU-4-class board (Samsung Exynos 5422
// big.LITTLE — four Cortex-A15 "big" cores and four Cortex-A7 "LITTLE"
// cores) running a raytracing workload. Operating points are combinations
// of per-cluster DVFS level and hot-plugged core count; each point has a
// board power and a raytrace frame rate, reproducing the paper's scatter
// of performance against consumption with roughly an order of magnitude of
// power modulation range.
//
// The numbers are a behavioural model (C_eff·V²·f dynamic power, Amdahl
// scaling with heterogeneous core throughput), not Exynos measurements;
// the shape — the Pareto frontier, the power range, the big/LITTLE
// crossover — is what the reproduction needs.
package mpsoc

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Cluster describes one CPU cluster's electrical and performance model.
type Cluster struct {
	Name     string
	MaxCores int
	// DVFS table: frequencies in Hz with the matching supply voltage.
	FreqHz []float64
	VoltV  []float64
	// CEff is the effective switched capacitance per core, farads.
	CEff float64
	// IPC is the relative instructions-per-cycle throughput factor.
	IPC float64
	// StaticW is the cluster's leakage power when any core is online.
	StaticW float64
}

// Board is a two-cluster big.LITTLE platform plus uncore power.
type Board struct {
	Little, Big Cluster
	UncoreW     float64 // memory/IO/fan base draw while the board runs

	// Raytrace workload model: FPSPerGOPS converts aggregate throughput
	// to frames per second; ParallelFrac is the Amdahl parallel fraction.
	FPSPerGOPS   float64
	ParallelFrac float64
}

// XU4 returns the ODROID XU-4-flavoured model used for Fig. 5.
func XU4() *Board {
	return &Board{
		Little: Cluster{
			Name:     "A7",
			MaxCores: 4,
			FreqHz:   []float64{200e6, 400e6, 600e6, 800e6, 1000e6, 1200e6, 1400e6},
			VoltV:    []float64{0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20},
			CEff:     0.30e-9,
			IPC:      1.0,
			StaticW:  0.12,
		},
		Big: Cluster{
			Name:     "A15",
			MaxCores: 4,
			FreqHz:   []float64{200e6, 400e6, 600e6, 800e6, 1000e6, 1200e6, 1400e6, 1600e6, 1800e6, 2000e6},
			VoltV:    []float64{0.92, 0.96, 1.00, 1.04, 1.08, 1.13, 1.18, 1.24, 1.30, 1.3625},
			CEff:     0.85e-9,
			IPC:      2.1,
			StaticW:  0.45,
		},
		UncoreW:      1.1,
		FPSPerGOPS:   0.013,
		ParallelFrac: 0.97,
	}
}

// OperatingPoint is one (cores, frequency) configuration per cluster.
type OperatingPoint struct {
	LittleCores int
	LittleFreq  int // index into Little.FreqHz; meaningful when cores > 0
	BigCores    int
	BigFreq     int

	PowerW float64
	FPS    float64
}

// Label renders the configuration compactly, e.g. "4xA7@1.4G+2xA15@2.0G".
func (op OperatingPoint) Label(b *Board) string {
	part := func(n int, c *Cluster, f int) string {
		if n == 0 {
			return ""
		}
		return fmt.Sprintf("%dx%s@%.1fG", n, c.Name, c.FreqHz[f]/1e9)
	}
	l := part(op.LittleCores, &b.Little, op.LittleFreq)
	bg := part(op.BigCores, &b.Big, op.BigFreq)
	switch {
	case l == "":
		return bg
	case bg == "":
		return l
	default:
		return l + "+" + bg
	}
}

// clusterPower returns the power of n active cores at DVFS index f.
func clusterPower(c *Cluster, n, f int) float64 {
	if n == 0 {
		return 0
	}
	dyn := float64(n) * c.CEff * c.VoltV[f] * c.VoltV[f] * c.FreqHz[f]
	return c.StaticW + dyn
}

// clusterGOPS returns the aggregate throughput contribution of n cores at
// DVFS index f in giga-operations per second.
func clusterGOPS(c *Cluster, n, f int) float64 {
	return float64(n) * c.IPC * c.FreqHz[f] / 1e9
}

// Evaluate computes power and FPS for a configuration.
func (b *Board) Evaluate(littleCores, littleFreq, bigCores, bigFreq int) OperatingPoint {
	op := OperatingPoint{
		LittleCores: littleCores, LittleFreq: littleFreq,
		BigCores: bigCores, BigFreq: bigFreq,
	}
	op.PowerW = b.UncoreW +
		clusterPower(&b.Little, littleCores, littleFreq) +
		clusterPower(&b.Big, bigCores, bigFreq)

	gops := clusterGOPS(&b.Little, littleCores, littleFreq) +
		clusterGOPS(&b.Big, bigCores, bigFreq)
	n := littleCores + bigCores
	if n == 0 || gops == 0 {
		op.FPS = 0
		return op
	}
	// Amdahl with heterogeneous cores: serial work runs on the fastest
	// online core; parallel work on the aggregate.
	fastest := 0.0
	if littleCores > 0 {
		fastest = math.Max(fastest, clusterGOPS(&b.Little, 1, littleFreq))
	}
	if bigCores > 0 {
		fastest = math.Max(fastest, clusterGOPS(&b.Big, 1, bigFreq))
	}
	p := b.ParallelFrac
	effGOPS := 1.0 / ((1-p)/fastest + p/gops)
	op.FPS = b.FPSPerGOPS * effGOPS
	return op
}

// OperatingPoints enumerates every hot-plug × DVFS combination with at
// least one core online. Offline clusters contribute one canonical entry
// (frequency index 0) rather than one per frequency.
func (b *Board) OperatingPoints() []OperatingPoint {
	var pts []OperatingPoint
	for lc := 0; lc <= b.Little.MaxCores; lc++ {
		lfMax := len(b.Little.FreqHz) - 1
		if lc == 0 {
			lfMax = 0
		}
		for lf := 0; lf <= lfMax; lf++ {
			for bc := 0; bc <= b.Big.MaxCores; bc++ {
				bfMax := len(b.Big.FreqHz) - 1
				if bc == 0 {
					bfMax = 0
				}
				for bf := 0; bf <= bfMax; bf++ {
					if lc == 0 && bc == 0 {
						continue
					}
					pts = append(pts, b.Evaluate(lc, lf, bc, bf))
				}
			}
		}
	}
	return pts
}

// ParetoFrontier returns the subset of points not dominated in the
// (lower power, higher FPS) sense, sorted by ascending power.
func ParetoFrontier(pts []OperatingPoint) []OperatingPoint {
	sorted := make([]OperatingPoint, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].PowerW != sorted[j].PowerW {
			return sorted[i].PowerW < sorted[j].PowerW
		}
		return sorted[i].FPS > sorted[j].FPS
	})
	var front []OperatingPoint
	bestFPS := math.Inf(-1)
	for _, p := range sorted {
		if p.FPS > bestFPS {
			front = append(front, p)
			bestFPS = p.FPS
		}
	}
	return front
}

// Table is what the runtime needs from a board's operating-point
// space: the Pareto frontier, plus the size and power range of the
// full enumeration for reports.
type Table struct {
	Frontier   []OperatingPoint
	Points     int
	MinW, MaxW float64
}

// NewTable enumerates b's operating points and reduces them to a Table.
func NewTable(b *Board) *Table {
	pts := b.OperatingPoints()
	minW, maxW := PowerRange(pts)
	return &Table{Frontier: ParetoFrontier(pts), Points: len(pts), MinW: minW, MaxW: maxW}
}

var xu4Table = sync.OnceValue(func() *Table { return NewTable(XU4()) })

// XU4Table returns XU4's Table. It is built on the first call and
// shared by every later one, so callers must treat it, its Frontier
// included, as read-only.
func XU4Table() *Table { return xu4Table() }

// Selector picks operating points against a power budget — the
// power-neutral MPSoC's runtime policy [11]: the highest-FPS point whose
// power fits the instantaneously harvested budget.
type Selector struct {
	Frontier []OperatingPoint // a ParetoFrontier, e.g. XU4Table().Frontier

	// Observe, if non-nil, is called by Sim.Step after every control
	// step with the step time, the instantaneous budget, and the chosen
	// point (ok=false on starved steps, where op is zero). It is a pure
	// observer — tracing hooks in here.
	Observe func(t, budgetW float64, op OperatingPoint, ok bool)
}

// Pick returns the Frontier index of the best point with PowerW ≤
// budget, and false if even the lowest point exceeds the budget (the
// system must power down or buffer). The frontier is strictly
// increasing in power, so the index identifies the point.
func (s *Selector) Pick(budgetW float64) (int, bool) {
	i := sort.Search(len(s.Frontier), func(i int) bool {
		return s.Frontier[i].PowerW > budgetW
	})
	return i - 1, i > 0
}

// PowerRange returns the min and max power across a point set — the
// paper's "order of magnitude" modulation claim is max/min ≈ 10.
func PowerRange(pts []OperatingPoint) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		min = math.Min(min, p.PowerW)
		max = math.Max(max, p.PowerW)
	}
	return min, max
}
