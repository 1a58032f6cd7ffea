package periph

import (
	"fmt"
	"math"

	"repro/internal/mcu"
	"repro/internal/programs"
)

// sense64 is the testbed of the `periph` figure: 64 samples per batch at
// gain ×3. It registers here, as powerneutral registers hibernus-pn into
// the runtime table, because the guest is defined by this package's
// register map.
func init() {
	programs.Register("sense64", programs.Factory{
		Desc:  "64 ADC samples at gain ×3, each running sum sent by radio (drives the peripheral bank)",
		Build: func(l programs.Layout) *programs.Workload { return SenseWorkload(64, 3, l) },
	})
}

// SenseWorkload generates the calibrated-sensing guest: at boot it
// configures the ADC (enable, gain) and the radio (magic handshake), then
// loops reading n samples, accumulating them and transmitting each running
// sum byte. It reports the 16-bit sum at SysDone.
//
// The configuration happens ONCE, at the top of main — exactly how real
// firmware is written. A transparent checkpointing runtime restores the
// PC *past* the configuration code, so unless peripheral state is part of
// the snapshot, every post-outage sample is taken at the power-on default
// gain and every transmission is dropped by the unconfigured radio.
func SenseWorkload(n int, gain byte, l programs.Layout) *programs.Workload {
	src := fmt.Sprintf(`
RAM   = 0x%04x
STACK = 0x%04x
MMIO  = 0x%04x
.org 0x%04x
start:
    MOVI sp, #STACK
    MOVI r9, #MMIO
    MOVI r1, #1
    STB  [r9+%d], r1    ; ADC enable
    MOVI r1, #%d
    STB  [r9+%d], r1    ; ADC gain (calibration)
    MOVI r1, #0x%02x
    STB  [r9+%d], r1    ; radio configuration handshake
    MOVI r3, #0         ; running sum
    MOVI r4, #0         ; sample count
loop:
    CHK
    LDB  r5, [r9+%d]    ; read calibrated sample
    ADD  r3, r5
    STB  [r9+%d], r3    ; transmit running-sum byte
    ADDI r4, #1
    CMPI r4, #%d
    JLT  loop
    MOV  r1, r3
    ADDI r8, #1
    MOV  r2, r8
    SYS  #%d
    JMP  start
`, l.RAMBase, l.StackTop, mcu.DefaultMMIOBase, l.NVBase,
		RegADCCtrl, gain, RegADCGain, RadioMagic, RegRadCfg,
		RegADCData, RegRadTx, n, programs.SysDone)

	return &programs.Workload{
		Name:     fmt.Sprintf("sense-mmio-%d", n),
		Source:   src,
		Expected: ExpectedSum(n, gain, 0),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
		MMIO:     true,
	}
}

// ExpectedSum returns the correct 16-bit running-sum result for n samples
// at the given gain on channel, assuming the sample sequence starts at
// startSeq and the calibration stays in force — the host reference for
// SenseWorkload.
func ExpectedSum(n int, gain byte, channel byte) uint16 {
	var sum uint16
	for i := 0; i < n; i++ {
		raw := RawSample(channel, uint16(i))
		v := uint32(raw) * uint32(gain)
		sum += uint16(math.Min(float64(v), 255))
	}
	return sum
}
