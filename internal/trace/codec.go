package trace

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary recorder codec. The columns are serialised as raw little-endian
// IEEE-754 bit patterns (math.Float64bits), so a decode reconstructs the
// exact float64 values — the property the byte-identity contract for
// checkpointed/resumed runs and cached results rests on. Layout:
//
//	u32 magic "ehtr" | u16 version | f64 interval | u32 nseries
//	per series: u16 len(name) | name | u16 len(unit) | unit |
//	            f64bits lastT | u32 n | n×f64bits ts | n×f64bits vs
const (
	codecMagic   = 0x65687472 // "ehtr"
	codecVersion = 1
)

// EncodeRecorder serialises the recorder, its column order, interval
// gate state, and every sample to a compact binary blob.
func EncodeRecorder(r *Recorder) []byte {
	size := 4 + 2 + 8 + 4
	for _, name := range r.order {
		s := r.series[name]
		size += 2 + len(s.Name) + 2 + len(s.Unit) + 8 + 4 + 16*len(s.vs)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, codecMagic)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.interval))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.order)))
	for _, name := range r.order {
		s := r.series[name]
		buf = appendString(buf, s.Name)
		buf = appendString(buf, s.Unit)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.lastT))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.vs)))
		for _, t := range s.ts {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
		}
		for _, v := range s.vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeRecorder reconstructs a recorder encoded by EncodeRecorder,
// including its interval gate state. A blob that
// EncodeRecorder cannot have produced is an error: truncated or
// trailing bytes, a sample count the remaining bytes cannot hold, a
// series name that appears twice, or a NaN or decreasing timestamp
// (every reader of the columns relies on a non-decreasing clock). Each
// accepted blob re-encodes to the same bytes.
func DecodeRecorder(data []byte) (*Recorder, error) {
	d := &decoder{buf: data}
	if magic := d.u32(); magic != codecMagic {
		return nil, fmt.Errorf("trace: bad codec magic %#x", magic)
	}
	if v := d.u16(); v != codecVersion {
		return nil, fmt.Errorf("trace: unsupported codec version %d", v)
	}
	r := NewRecorder()
	r.interval = d.f64()
	nseries := int(d.u32())
	for i := 0; i < nseries && d.err == nil; i++ {
		name := d.str()
		unit := d.str()
		lastT := d.f64()
		n := int(d.u32())
		if d.err != nil {
			break
		}
		if _, dup := r.series[name]; dup {
			return nil, fmt.Errorf("trace: series %q appears twice", name)
		}
		if rem := len(d.buf) - d.off; n < 0 || rem/16 < n {
			return nil, fmt.Errorf("trace: series %q claims %d samples, %d bytes left", name, n, rem)
		}
		s := r.create(name, unit)
		s.ts = make([]float64, n)
		s.vs = make([]float64, n)
		// Timestamps, then values, as raw little-endian bit patterns; the
		// length check above guarantees both columns are present.
		raw := d.take(16 * n)
		prev := math.Inf(-1)
		for j := range s.ts {
			t := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			if !(t >= prev) {
				return nil, fmt.Errorf("trace: series %q sample %d: timestamp %g after %g is NaN or decreasing", name, j, t, prev)
			}
			s.ts[j], prev = t, t
		}
		raw = raw[8*n:]
		for j := range s.vs {
			s.vs[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		s.lastT = lastT
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("trace: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("trace: truncated blob at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
