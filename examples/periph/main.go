// Periph demonstrates the extension the paper's discussion section calls
// for: transient computing for peripherals, not just computation. A
// sensing application calibrates its ADC (gain ×3) and performs a radio
// configuration handshake once at boot — then hibernus checkpoints carry
// the CPU past that code forever. Across 20 power failures, the naive
// runtime resumes on a silently reset sensor and a deaf radio; the
// peripheral-aware extension snapshots the register bank too and stays
// correct.
package main

import (
	"fmt"
	"os"

	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/periph"
	"repro/internal/programs"
	"repro/internal/source"
	"repro/internal/transient"
)

func run(aware bool) (lab.Result, *periph.Bank) {
	var bank *periph.Bank
	res, err := lab.Run(lab.Setup{
		Workload:  periph.SenseWorkload(64, 3, programs.DefaultLayout()),
		Params:    mcu.DefaultParams(),
		Configure: func(d *mcu.Device) { bank = periph.Attach(d, aware) },
		MakeRuntime: func(d *mcu.Device) mcu.Runtime {
			return transient.NewHibernus(d, 10e-6, 1.1, 0.35)
		},
		VSource:  &source.SquareWaveVoltage{High: 3.3, OnTime: 0.004, OffTime: 0.150, Rs: 100},
		C:        10e-6,
		LeakR:    50e3,
		Duration: 3.0,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "periph: %v\n", err)
		os.Exit(1)
	}
	return res, bank
}

func main() {
	fmt.Println("== calibrated sensing across 20 outages: who protects the peripherals? ==")
	fmt.Println()
	naiveRes, naiveBank := run(false)
	awareRes, awareBank := run(true)

	report := func(name string, res lab.Result, bank *periph.Bank) {
		fmt.Printf("%s\n", name)
		fmt.Printf("  correct batches:   %d\n", res.Completions)
		fmt.Printf("  corrupted batches: %d   <- stale ADC gain after restore\n", res.WrongResults)
		fmt.Printf("  packets delivered: %d\n", len(bank.TxDelivered))
		fmt.Printf("  packets dropped:   %d   <- radio lost its config handshake\n", bank.TxDropped)
		fmt.Printf("  brown-outs:        %d\n\n", res.Stats.BrownOuts)
	}
	report("hibernus, CPU+RAM snapshots only (state of the art the paper critiques):",
		naiveRes, naiveBank)
	report("hibernus + peripheral register bank in the snapshot (the extension):",
		awareRes, awareBank)

	fmt.Println("the application code is identical; only the snapshot scope differs.")
}
