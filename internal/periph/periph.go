// Package periph implements the extension the paper's discussion section
// identifies as missing from transient-computing work: peripherals.
// ("However, work to date has primarily focused on computation, and not
// the plethora of peripherals that are typically present in embedded
// systems.")
//
// The package provides a memory-mapped peripheral bank — an ADC-style
// sensor with configuration registers (gain, channel) and a radio with a
// configuration handshake — whose registers are genuinely volatile: a
// brown-out resets them to power-on defaults, exactly like the CPU's own
// state. A checkpointing runtime that restores CPU + RAM but not the
// peripheral bank resumes with a *misconfigured* sensor and a deaf radio;
// the guest then computes dutifully on garbage. Enabling the device's
// SnapshotAux switch includes the bank in snapshots (through mcu.AuxState)
// and closes the gap.
//
// Register map (offsets within the MMIO window at mcu.DefaultMMIOBase):
//
//	0x00  ADC_CTRL   bit0 = enable (default 0)
//	0x01  ADC_GAIN   sample multiplier (default 1)
//	0x02  ADC_CHAN   input channel (default 0)
//	0x03  ADC_DATA   read: next sample = raw(chan, seq) × gain (enable required)
//	0x10  RAD_CFG    must be written 0xA5 before the radio accepts data
//	0x11  RAD_PWR    transmit power (informational)
//	0x12  RAD_TX     write: transmit one byte (dropped if unconfigured)
package periph

import (
	"fmt"
	"math"
)

// Register offsets.
const (
	RegADCCtrl = 0x00
	RegADCGain = 0x01
	RegADCChan = 0x02
	RegADCData = 0x03
	RegRadCfg  = 0x10
	RegRadPwr  = 0x11
	RegRadTx   = 0x12

	// RadioMagic is the configuration value the radio requires.
	RadioMagic = 0xa5
)

// Bank is the peripheral set. It implements both mcu.MMIO (bus side) and
// mcu.AuxState (snapshot side).
type Bank struct {
	// Volatile register file.
	adcCtrl byte
	adcGain byte
	adcChan byte
	radCfg  byte
	radPwr  byte
	// seq is the ADC sample sequencer — also volatile device state: a
	// restart replays the sequence, a true restore continues it.
	seq uint16

	// Telemetry (host side, not part of device state): counts only, so
	// a run of any length holds a bank of fixed size.
	SamplesRead int
	TxDelivered int
	TxDropped   int
}

// NewBank returns a bank in its power-on state.
func NewBank() *Bank {
	b := &Bank{}
	b.Reset()
	return b
}

// Reset implements mcu.AuxState: power-on defaults.
func (b *Bank) Reset() {
	b.adcCtrl = 0
	b.adcGain = 1
	b.adcChan = 0
	b.radCfg = 0
	b.radPwr = 0
	b.seq = 0
}

// Capture implements mcu.AuxState.
func (b *Bank) Capture() []byte {
	return []byte{
		b.adcCtrl, b.adcGain, b.adcChan, b.radCfg, b.radPwr,
		byte(b.seq), byte(b.seq >> 8),
	}
}

// bankStateLen is the exact Capture payload size: five registers plus
// the 16-bit sequencer.
const bankStateLen = 7

// Restore implements mcu.AuxState. Anything but an exact Capture
// payload — truncated or oversized — is rejected without touching the
// register file: a trailing-garbage payload accepted leniently would
// mask a framing bug in the snapshot codec, and a partial apply would
// be the silent peripheral corruption this package exists to model.
func (b *Bank) Restore(data []byte) error {
	if len(data) != bankStateLen {
		return fmt.Errorf("periph: aux payload is %d bytes, want %d", len(data), bankStateLen)
	}
	b.adcCtrl = data[0]
	b.adcGain = data[1]
	b.adcChan = data[2]
	b.radCfg = data[3]
	b.radPwr = data[4]
	b.seq = uint16(data[5]) | uint16(data[6])<<8
	return nil
}

// RawSample returns the deterministic underlying sensor value for a given
// channel and sequence index — the physical quantity, before gain.
func RawSample(channel byte, seq uint16) byte {
	return byte((uint32(seq)*7 + 13 + uint32(channel)*5) & 0x1f)
}

// ReadReg implements mcu.MMIO.
func (b *Bank) ReadReg(off uint16) byte {
	switch off {
	case RegADCCtrl:
		return b.adcCtrl
	case RegADCGain:
		return b.adcGain
	case RegADCChan:
		return b.adcChan
	case RegADCData:
		if b.adcCtrl&1 == 0 {
			return 0 // disabled ADC reads zero
		}
		raw := RawSample(b.adcChan, b.seq)
		b.seq++
		b.SamplesRead++
		v := uint32(raw) * uint32(b.adcGain)
		return byte(math.Min(float64(v), 255))
	case RegRadCfg:
		return b.radCfg
	case RegRadPwr:
		return b.radPwr
	default:
		return 0
	}
}

// WriteReg implements mcu.MMIO.
func (b *Bank) WriteReg(off uint16, v byte) {
	switch off {
	case RegADCCtrl:
		b.adcCtrl = v
	case RegADCGain:
		b.adcGain = v
	case RegADCChan:
		b.adcChan = v
	case RegRadCfg:
		b.radCfg = v
	case RegRadPwr:
		b.radPwr = v
	case RegRadTx:
		if b.radCfg == RadioMagic {
			b.TxDelivered++
		} else {
			b.TxDropped++
		}
	}
}
