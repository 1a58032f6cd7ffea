// Mpsoc demonstrates power-neutral performance scaling on the big.LITTLE
// MPSoC of Fig. 5: enumerate the DVFS × hot-plug operating-point space,
// print the Pareto frontier, then walk a varying harvested-power budget
// and show the selector trading frame rate for power headroom.
package main

import (
	"fmt"
	"math"

	"repro/internal/mpsoc"
	"repro/internal/trace"
)

func main() {
	board := mpsoc.XU4()
	pts := board.OperatingPoints()
	minW, maxW := mpsoc.PowerRange(pts)
	fmt.Printf("== ODROID XU-4 model: %d operating points, %.2f–%.2f W (%.1f× modulation) ==\n\n",
		len(pts), minW, maxW, maxW/minW)

	front := mpsoc.ParetoFrontier(pts)
	fmt.Printf("Pareto frontier (%d points):\n", len(front))
	for i, p := range front {
		if i%3 != 0 && i != len(front)-1 {
			continue
		}
		fmt.Printf("  %-26s %6.2f W  %.4f FPS\n", p.Label(board), p.PowerW, p.FPS)
	}

	// Scatter of the full space — the Fig. 5 reproduction.
	scatter := make([]trace.ScatterPoint, 0, len(pts))
	for _, p := range pts {
		scatter = append(scatter, trace.ScatterPoint{X: p.PowerW, Y: p.FPS})
	}
	fmt.Println()
	fmt.Print(trace.Scatter("Fig. 5: raytrace FPS vs board power", "W", "FPS", scatter, 90, 16))

	// Power-neutral walk: a sinusoidal harvest budget over 60 s.
	fmt.Println("\npower-neutral selection against a varying harvest budget:")
	sel := &mpsoc.Selector{Frontier: front}
	fmt.Printf("  %-6s %-10s %-26s %-8s %s\n", "t(s)", "budget(W)", "selected point", "P(W)", "FPS")
	for t := 0; t <= 60; t += 6 {
		budget := 2 + 14*(0.5-0.5*math.Cos(2*math.Pi*float64(t)/60))
		i, ok := sel.Pick(budget)
		if !ok {
			fmt.Printf("  %-6d %-10.2f (insufficient power — buffer or sleep)\n", t, budget)
			continue
		}
		op := sel.Frontier[i]
		fmt.Printf("  %-6d %-10.2f %-26s %-8.2f %.4f\n",
			t, budget, op.Label(board), op.PowerW, op.FPS)
	}
}
