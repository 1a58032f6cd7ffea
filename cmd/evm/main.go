// Command evm is the standalone EVM-16 toolchain driver: assemble a
// source file, disassemble the image, or run a program on a flat memory
// and print the final register state.
//
// Usage:
//
//	evm asm  prog.s              assemble; print segment map and symbols
//	evm dis  prog.s              assemble then disassemble
//	evm run  [-steps N] prog.s   assemble and execute until HALT
//	evm demo fft|crc|sieve|fib   print a generated workload's source
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/isa"
	"repro/internal/programs"
	"repro/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage:
  evm asm  prog.s              assemble; print segments and symbols
  evm dis  prog.s              assemble then disassemble
  evm run  [-steps N] prog.s   assemble and execute until HALT/SYS done
  evm demo fft|crc|sieve|fib   print a generated workload's source
`

// errUsage marks a malformed command line: usage on stderr, exit 2.
var errUsage = errors.New("usage")

// run is the testable entry point: it dispatches the subcommand and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	err := errUsage
	if len(args) > 0 {
		err = dispatch(args[0], args[1:], stdout, stderr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprint(stderr, usageText)
		return 2
	default:
		fmt.Fprintf(stderr, "evm: %v\n", err)
		return 1
	}
}

func dispatch(cmd string, args []string, stdout, stderr io.Writer) error {
	switch cmd {
	case "asm":
		p, err := assembleFile(args)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "entry: 0x%04x\n", p.Entry)
		fmt.Fprintf(stdout, "size:  %d bytes in %d segments\n", p.Size(), len(p.Segments))
		for _, seg := range p.Segments {
			fmt.Fprintf(stdout, "  segment 0x%04x..0x%04x (%d bytes)\n",
				seg.Addr, int(seg.Addr)+len(seg.Data)-1, len(seg.Data))
		}
		fmt.Fprintln(stdout, "symbols:")
		for _, name := range slices.Sorted(maps.Keys(p.Labels)) {
			fmt.Fprintf(stdout, "  %-20s 0x%04x\n", name, p.Labels[name])
		}
	case "dis":
		p, err := assembleFile(args)
		if err != nil {
			return err
		}
		ram := &isa.FlatRAM{}
		p.LoadInto(ram)
		for _, seg := range p.Segments {
			for _, line := range isa.Disassemble(ram, seg.Addr, uint16(len(seg.Data))) {
				fmt.Fprintln(stdout, line)
			}
		}
	case "run":
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(stderr)
		steps := fs.Int("steps", 10_000_000, "maximum instructions")
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return err
			}
			return errUsage
		}
		p, err := assembleFile(fs.Args())
		if err != nil {
			return err
		}
		ram := &isa.FlatRAM{}
		p.LoadInto(ram)
		c := &isa.Core{Bus: ram}
		c.Reset(p.Entry)
		c.R[isa.SP] = 0xff00
		c.Sys = func(code uint16, core *isa.Core) {
			fmt.Fprintf(stdout, "SYS #%d: r1=0x%04x r2=0x%04x\n", code, core.R[1], core.R[2])
			if code == programs.SysDone {
				core.Halted = true
			}
		}
		n, err := c.Run(*steps)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "retired %d instructions, %d cycles (%s at 8 MHz)\n",
			n, c.Cycles, units.FormatSeconds(float64(c.Cycles)/8e6))
		for i, v := range c.R {
			fmt.Fprintf(stdout, "  r%-2d = 0x%04x (%d)\n", i, v, int16(v))
		}
		fmt.Fprintf(stdout, "  pc  = 0x%04x  halted=%v\n", c.PC, c.Halted)
	case "demo":
		if len(args) != 1 {
			return errUsage
		}
		l := programs.DefaultLayout()
		var w *programs.Workload
		switch args[0] {
		case "fft":
			w = programs.FFT(64, l)
		case "crc":
			w = programs.CRC16(64, l)
		case "sieve":
			w = programs.Sieve(1000, l)
		case "fib":
			w = programs.Fib(24, l)
		default:
			return errUsage
		}
		fmt.Fprintf(stdout, "; workload %s — expected result 0x%04x in r1 at SYS #%d\n",
			w.Name, w.Expected, programs.SysDone)
		fmt.Fprint(stdout, w.Source)
	default:
		return errUsage
	}
	return nil
}

// assembleFile assembles the one source file args names.
func assembleFile(args []string) (*isa.Program, error) {
	if len(args) != 1 {
		return nil, errUsage
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return isa.Assemble(string(src))
}
