// Package programs provides the guest workloads executed by the simulated
// MCU: the FFT the paper's Fig. 7 runs across an intermittent supply, plus
// CRC-16, a prime sieve, Fibonacci, and a sensing loop. Each workload is
// EVM-16 assembly generated together with a host-side reference result, so
// tests can verify bit-exact correctness of a run — including runs that
// were interrupted and restored arbitrarily many times, which is the whole
// point of transient computing: "computation proceeds correctly despite
// power interruptions".
//
// Conventions shared by all workloads:
//
//   - Code and constant tables live in the non-volatile region (NVBase);
//     working buffers live at RAMBase (SRAM for hibernus/Mementos systems,
//     FRAM for QuickRecall-style unified-NVM systems).
//   - A workload runs forever: each completed iteration recomputes from
//     scratch, emits its result checksum via SYS SysDone (result in r1,
//     iteration count in r2), and restarts. The harness counts completions.
//   - CHK instructions mark loop-head checkpoint sites for Mementos-style
//     runtimes; they are NOPs under every other runtime.
//   - The stack grows down from StackTop.
package programs

import (
	"fmt"
	"math"
	"strings"
)

// SYS trap codes used by the workloads.
const (
	SysDone   = 1 // iteration complete: r1 = result checksum, r2 = iteration
	SysSensor = 2 // read sensor: host writes a sample into r1
	SysEmit   = 3 // emit the value in r1 to the host (e.g. radio/output)
)

// Default memory layout (matches the mcu package's MSP430-like map).
const (
	DefaultRAMBase  = 0x0200 // working buffers (SRAM on split-memory systems)
	DefaultNVBase   = 0x4000 // code + constant tables (FRAM/flash)
	DefaultStackTop = 0x0ff0 // top of the 4 KiB SRAM region
)

// Workload is one guest program plus everything needed to validate a run.
type Workload struct {
	Name     string
	Source   string // EVM-16 assembly
	Expected uint16 // reference result the guest must produce in r1 at SysDone

	// Layout used when the source was generated.
	RAMBase  uint16
	NVBase   uint16
	StackTop uint16

	// MMIO reports that the guest drives the peripheral register bank at
	// mcu.DefaultMMIOBase; the lab wires a fresh bank onto the device
	// for it.
	MMIO bool
}

// Layout carries the memory placement parameters for workload generation.
type Layout struct {
	RAMBase  uint16
	NVBase   uint16
	StackTop uint16
}

// DefaultLayout is the split SRAM/FRAM layout.
func DefaultLayout() Layout {
	return Layout{RAMBase: DefaultRAMBase, NVBase: DefaultNVBase, StackTop: DefaultStackTop}
}

// UnifiedNVLayout places working buffers in non-volatile memory too, as a
// QuickRecall-style unified-FRAM system does (only registers are volatile).
func UnifiedNVLayout() Layout {
	return Layout{RAMBase: 0x5000, NVBase: DefaultNVBase, StackTop: 0x7ff0}
}

// prologue emits the shared source header: layout constants and stack
// initialisation. Every workload begins execution at the "start" label and
// must re-initialise all working state from non-volatile tables, because a
// cold restart after an outage begins here with RAM undefined.
func prologue(l Layout) string {
	return fmt.Sprintf(`
RAM   = 0x%04x
STACK = 0x%04x
.org 0x%04x
start:
    MOVI sp, #STACK
`, l.RAMBase, l.StackTop, l.NVBase)
}

// ---------------------------------------------------------------------------
// CRC-16/CCITT
// ---------------------------------------------------------------------------

// crc16Ref computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over data.
func crc16Ref(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// crcTestData generates the deterministic input block baked into the CRC
// workload image.
func crcTestData(n int) []byte {
	data := make([]byte, n)
	x := uint32(0x12345678)
	for i := range data {
		// xorshift32 for a fixed, irregular pattern.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data[i] = byte(x)
	}
	return data
}

// CRC16 returns a workload computing CRC-16/CCITT over an n-byte block
// stored in non-volatile memory. A CHK site sits at the head of the byte
// loop (the granularity a Mementos loop-latch pass would instrument).
func CRC16(n int, l Layout) *Workload {
	data := crcTestData(n)
	var b strings.Builder
	b.WriteString(prologue(l))
	fmt.Fprintf(&b, `
    MOVI r1, #0xffff   ; crc
    MOVI r2, #0        ; index
    MOVI r3, #data
byte_loop:
    CHK                ; Mementos loop-latch checkpoint site
    MOV  r4, r3
    ADD  r4, r2
    LDB  r5, [r4+0]
    SHL  r5, #8
    XOR  r1, r5
    MOVI r6, #8        ; bit counter
bit_loop:
    SHL  r1, #1        ; C = old bit 15
    JNC  no_poly
    MOVI r7, #0x1021
    XOR  r1, r7
no_poly:
    SUBI r6, #1
    JNZ  bit_loop
    ADDI r2, #1
    CMPI r2, #%d
    JLT  byte_loop
    ADDI r8, #1        ; iteration counter (wraps; informational)
    MOV  r2, r8
    SYS  #%d
    JMP  start

data:
`, n, SysDone)
	writeByteTable(&b, data)
	return &Workload{
		Name:     fmt.Sprintf("crc16-%dB", n),
		Source:   b.String(),
		Expected: crc16Ref(data),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
	}
}

// ---------------------------------------------------------------------------
// Fixed-point radix-2 FFT
// ---------------------------------------------------------------------------

// qmul15 mirrors the EVM-16 QMUL instruction: signed Q15 product with
// saturation.
func qmul15(a, b int16) int16 {
	p := (int32(a) * int32(b)) >> 15
	if p > 32767 {
		p = 32767
	}
	if p < -32768 {
		p = -32768
	}
	return int16(p)
}

// fftTables returns the bit-reversal and Q15 twiddle tables for an n-point
// FFT (n a power of two).
func fftTables(n int) (brev []uint16, twr, twi []int16) {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	brev = make([]uint16, n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		brev[i] = uint16(r)
	}
	twr = make([]int16, n/2)
	twi = make([]int16, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		twr[k] = clampQ15(math.Round(32767 * math.Cos(ang)))
		twi[k] = clampQ15(math.Round(32767 * math.Sin(ang)))
	}
	return brev, twr, twi
}

func clampQ15(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// fftInput generates the two-tone test signal baked into the workload.
func fftInput(n int) []int16 {
	in := make([]int16, n)
	for i := 0; i < n; i++ {
		s := 8191*math.Sin(2*math.Pi*3*float64(i)/float64(n)) +
			8191*math.Cos(2*math.Pi*5*float64(i)/float64(n))
		in[i] = clampQ15(math.Round(s))
	}
	return in
}

// fftRef runs the reference FFT with arithmetic identical to the guest
// (Q15 QMUL with saturation, per-stage arithmetic-shift scaling) and
// returns the XOR-fold checksum the guest computes.
func fftRef(n int) uint16 {
	brev, twr, twi := fftTables(n)
	re := fftInput(n)
	im := make([]int16, n)
	// Bit-reversal permutation.
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
	var sum uint16
	for i := 0; i < n; i++ {
		sum ^= uint16(re[i])
		sum ^= uint16(im[i])
	}
	return sum
}

// FFT returns a workload computing an n-point Q15 FFT (n a power of two,
// 8 ≤ n ≤ 256) over a fixed two-tone input. This is the paper's Fig. 7
// workload: "an FFT that began at the beginning of execution is completed"
// across supply interruptions.
func FFT(n int, l Layout) *Workload {
	if n < 8 || n > 256 || n&(n-1) != 0 {
		panic("programs: FFT size must be a power of two in [8,256]")
	}
	brev, twr, twi := fftTables(n)
	input := fftInput(n)

	var b strings.Builder
	b.WriteString(prologue(l))
	fmt.Fprintf(&b, `
re = RAM
im = RAM+%d

; --- init: copy input from NV table, clear imaginary part ---
    MOVI r1, #0
init_loop:
    MOV  r2, r1
    SHL  r2, #1
    MOVI r3, #input
    ADD  r3, r2
    LD   r4, [r3+0]
    MOVI r3, #re
    ADD  r3, r2
    ST   [r3+0], r4
    MOVI r3, #im
    ADD  r3, r2
    MOVI r4, #0
    ST   [r3+0], r4
    ADDI r1, #1
    CMPI r1, #%d
    JLT  init_loop

; --- bit-reversal permutation (swap when i < brev[i]) ---
    MOVI r1, #0
brev_loop:
    MOV  r2, r1
    SHL  r2, #1
    MOVI r3, #brev
    ADD  r3, r2
    LD   r4, [r3+0]     ; j
    CMP  r1, r4
    JGE  brev_next
    MOV  r6, r4
    SHL  r6, #1         ; 2j
    MOVI r5, #re
    ADD  r5, r2
    MOVI r7, #re
    ADD  r7, r6
    LD   r8, [r5+0]
    LD   r9, [r7+0]
    ST   [r5+0], r9
    ST   [r7+0], r8
    MOVI r5, #im
    ADD  r5, r2
    MOVI r7, #im
    ADD  r7, r6
    LD   r8, [r5+0]
    LD   r9, [r7+0]
    ST   [r5+0], r9
    ST   [r7+0], r8
brev_next:
    ADDI r1, #1
    CMPI r1, #%d
    JLT  brev_loop

; --- butterfly stages ---
; r1=len r2=half r3=step r4=base r5=j r6=k
    MOVI r1, #2
    MOVI r3, #%d        ; step = N/2 for the first stage
len_loop:
    MOV  r2, r1
    SHR  r2, #1
    MOVI r4, #0
base_loop:
    CHK                 ; Mementos checkpoint site (outer-loop latch)
    MOVI r5, #0
    MOVI r6, #0
j_loop:
    MOV  r7, r4
    ADD  r7, r5         ; idx1
    MOV  r8, r7
    ADD  r8, r2         ; idx2
    SHL  r7, #1
    SHL  r8, #1
    MOV  r9, r6
    SHL  r9, #1
    MOVI r10, #twr
    ADD  r10, r9
    LD   r10, [r10+0]   ; wr
    MOVI r11, #twi
    ADD  r11, r9
    LD   r11, [r11+0]   ; wi
    MOVI r12, #re
    ADD  r12, r8
    LD   r9, [r12+0]    ; br
    MOVI r13, #im
    ADD  r13, r8
    LD   r14, [r13+0]   ; bi
    MOV  r12, r9
    QMUL r12, r10       ; br·wr
    MOV  r13, r14
    QMUL r13, r11       ; bi·wi
    SUB  r12, r13       ; tr
    QMUL r9, r11        ; br·wi
    QMUL r14, r10       ; bi·wr
    ADD  r9, r14        ; ti
    SAR  r12, #1
    SAR  r9, #1
    MOVI r10, #re
    ADD  r10, r7
    LD   r11, [r10+0]
    SAR  r11, #1        ; ar
    MOV  r13, r11
    ADD  r13, r12
    ST   [r10+0], r13   ; re[idx1] = ar + tr
    MOVI r13, #re
    ADD  r13, r8
    SUB  r11, r12
    ST   [r13+0], r11   ; re[idx2] = ar - tr
    MOVI r10, #im
    ADD  r10, r7
    LD   r11, [r10+0]
    SAR  r11, #1        ; ai
    MOV  r13, r11
    ADD  r13, r9
    ST   [r10+0], r13   ; im[idx1] = ai + ti
    MOVI r13, #im
    ADD  r13, r8
    SUB  r11, r9
    ST   [r13+0], r11   ; im[idx2] = ai - ti
    ADD  r6, r3         ; k += step
    ADDI r5, #1
    CMP  r5, r2
    JLT  j_loop
    ADD  r4, r1         ; base += len
    CMPI r4, #%d
    JLT  base_loop
    SHL  r1, #1         ; len <<= 1
    SHR  r3, #1         ; step >>= 1
    CMPI r1, #%d
    JLT  len_loop
    JZ   len_loop

; --- checksum: XOR-fold both buffers ---
    MOVI r1, #0
    MOVI r2, #0
sum_loop:
    MOV  r3, r2
    SHL  r3, #1
    MOVI r4, #re
    ADD  r4, r3
    LD   r5, [r4+0]
    XOR  r1, r5
    MOVI r4, #im
    ADD  r4, r3
    LD   r5, [r4+0]
    XOR  r1, r5
    ADDI r2, #1
    CMPI r2, #%d
    JLT  sum_loop
    ADDI r8, #1
    MOV  r2, r8
    SYS  #%d
    JMP  start

input:
`, 2*n, n, n, n/2, n, n, n, SysDone)
	writeWordTable(&b, input)
	b.WriteString("brev:\n")
	writeUWordTable(&b, brev)
	b.WriteString("twr:\n")
	writeWordTable(&b, twr)
	b.WriteString("twi:\n")
	writeWordTable(&b, twi)

	return &Workload{
		Name:     fmt.Sprintf("fft-%d", n),
		Source:   b.String(),
		Expected: fftRef(n),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
	}
}

// ---------------------------------------------------------------------------
// Prime sieve
// ---------------------------------------------------------------------------

// sieveRef counts primes below limit.
func sieveRef(limit int) uint16 {
	comp := make([]bool, limit)
	count := uint16(0)
	for i := 2; i < limit; i++ {
		if comp[i] {
			continue
		}
		count++
		for j := i * i; j < limit; j += i {
			comp[j] = true
		}
	}
	return count
}

// Sieve returns a workload counting primes below limit (limit ≤ 4096) with
// a byte-per-flag sieve in working RAM.
func Sieve(limit int, l Layout) *Workload {
	if limit < 10 || limit > 4096 {
		panic("programs: sieve limit must be in [10, 4096]")
	}
	var b strings.Builder
	b.WriteString(prologue(l))
	fmt.Fprintf(&b, `
flags = RAM
N = %d

; clear flags
    MOVI r1, #0
    MOVI r2, #0
clear_loop:
    CHK                ; Mementos loop-latch checkpoint site
    MOVI r3, #flags
    ADD  r3, r1
    STB  [r3+0], r2
    ADDI r1, #1
    CMPI r1, #N
    JLT  clear_loop

; sieve
    MOVI r4, #0        ; prime count
    MOVI r1, #2        ; i
outer:
    CHK                ; Mementos checkpoint site
    MOVI r3, #flags
    ADD  r3, r1
    LDB  r5, [r3+0]
    CMPI r5, #0
    JNZ  next_i
    ADDI r4, #1        ; found a prime
    ; marking is only needed while i*i < N; N <= 4096 so i < 64 suffices
    ; (this also keeps i*i inside the signed-positive 16-bit range)
    CMPI r1, #64
    JGE  next_i
    MOV  r6, r1
    MUL  r6, r1        ; j = i*i
    CMPI r6, #N
    JGE  next_i
mark_loop:
    CHK                ; Mementos loop-latch checkpoint site
    MOVI r3, #flags
    ADD  r3, r6
    MOVI r7, #1
    STB  [r3+0], r7
    ADD  r6, r1
    CMPI r6, #N
    JLT  mark_loop
next_i:
    ADDI r1, #1
    CMPI r1, #N
    JLT  outer
    MOV  r1, r4
    ADDI r8, #1
    MOV  r2, r8
    SYS  #%d
    JMP  start
`, limit, SysDone)
	return &Workload{
		Name:     fmt.Sprintf("sieve-%d", limit),
		Source:   b.String(),
		Expected: sieveRef(limit),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
	}
}

// ---------------------------------------------------------------------------
// Fibonacci
// ---------------------------------------------------------------------------

// fibRef computes fib(n) mod 2^16.
func fibRef(n int) uint16 {
	a, b := uint16(0), uint16(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// Fib returns a tiny workload computing fib(n) mod 2^16 iteratively — the
// shortest useful guest for runtime smoke tests.
func Fib(n int, l Layout) *Workload {
	var b strings.Builder
	b.WriteString(prologue(l))
	fmt.Fprintf(&b, `
    MOVI r1, #0        ; a
    MOVI r2, #1        ; b
    MOVI r3, #%d       ; counter
    CMPI r3, #0
    JZ   done
fib_loop:
    CHK
    MOV  r4, r2
    ADD  r2, r1
    MOV  r1, r4
    SUBI r3, #1
    JNZ  fib_loop
done:
    ADDI r8, #1
    MOV  r2, r8
    SYS  #%d
    JMP  start
`, n, SysDone)
	return &Workload{
		Name:     fmt.Sprintf("fib-%d", n),
		Source:   b.String(),
		Expected: fibRef(n),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
	}
}

// ---------------------------------------------------------------------------
// Q15 matrix multiply
// ---------------------------------------------------------------------------

// matInput generates the deterministic Q15 source matrices.
func matInput(n int) (a, bm []int16) {
	a = make([]int16, n*n)
	bm = make([]int16, n*n)
	x := uint32(0xbeef1234)
	next := func() int16 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		// Keep magnitudes modest so Q15 products stay meaningful.
		return int16(int32(x%16384) - 8192)
	}
	for i := range a {
		a[i] = next()
	}
	for i := range bm {
		bm[i] = next()
	}
	return a, bm
}

// matmulRef mirrors the guest arithmetic: C[i][j] = Σ_k qmul(A[i][k],
// B[k][j]) with wrapping 16-bit accumulation, then XOR-folds C.
func matmulRef(n int) uint16 {
	a, bm := matInput(n)
	var sum uint16
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int16
			for k := 0; k < n; k++ {
				acc += qmul15(a[i*n+k], bm[k*n+j])
			}
			sum ^= uint16(acc)
		}
	}
	return sum
}

// MatMul returns a workload computing an n×n Q15 matrix product
// (4 ≤ n ≤ 16) over fixed inputs, with the result matrix in working RAM
// and an XOR-fold checksum. Checkpoint sites sit at the row loop.
func MatMul(n int, l Layout) *Workload {
	if n < 4 || n > 16 {
		panic("programs: MatMul size must be in [4,16]")
	}
	a, bm := matInput(n)
	var b strings.Builder
	b.WriteString(prologue(l))
	fmt.Fprintf(&b, `
cbuf = RAM
N = %d

; r1=i r2=j r3=k r4=acc
    MOVI r1, #0
row_loop:
    CHK                 ; Mementos checkpoint site
    MOVI r2, #0
col_loop:
    MOVI r3, #0
    MOVI r4, #0
k_loop:
    ; a[i*N+k]
    MOV  r5, r1
    MOVI r6, #N
    MUL  r5, r6
    ADD  r5, r3
    SHL  r5, #1
    MOVI r6, #amat
    ADD  r6, r5
    LD   r7, [r6+0]
    ; b[k*N+j]
    MOV  r5, r3
    MOVI r6, #N
    MUL  r5, r6
    ADD  r5, r2
    SHL  r5, #1
    MOVI r6, #bmat
    ADD  r6, r5
    LD   r8, [r6+0]
    QMUL r7, r8
    ADD  r4, r7
    ADDI r3, #1
    CMPI r3, #N
    JLT  k_loop
    ; c[i*N+j] = acc
    MOV  r5, r1
    MOVI r6, #N
    MUL  r5, r6
    ADD  r5, r2
    SHL  r5, #1
    MOVI r6, #cbuf
    ADD  r6, r5
    ST   [r6+0], r4
    ADDI r2, #1
    CMPI r2, #N
    JLT  col_loop
    ADDI r1, #1
    CMPI r1, #N
    JLT  row_loop

; checksum: XOR-fold C
    MOVI r1, #0
    MOVI r2, #0
mm_sum_loop:
    MOV  r3, r2
    SHL  r3, #1
    MOVI r4, #cbuf
    ADD  r4, r3
    LD   r5, [r4+0]
    XOR  r1, r5
    ADDI r2, #1
    CMPI r2, #%d
    JLT  mm_sum_loop
    ADDI r8, #1
    MOV  r2, r8
    SYS  #%d
    JMP  start

amat:
`, n, n*n, SysDone)
	writeWordTable(&b, a)
	b.WriteString("bmat:\n")
	writeWordTable(&b, bm)
	return &Workload{
		Name:     fmt.Sprintf("matmul-%d", n),
		Source:   b.String(),
		Expected: matmulRef(n),
		RAMBase:  l.RAMBase,
		NVBase:   l.NVBase,
		StackTop: l.StackTop,
	}
}

// ---------------------------------------------------------------------------
// table emission helpers
// ---------------------------------------------------------------------------

func writeWordTable(b *strings.Builder, vals []int16) {
	for i := 0; i < len(vals); i += 8 {
		b.WriteString("    .word ")
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
}

func writeUWordTable(b *strings.Builder, vals []uint16) {
	for i := 0; i < len(vals); i += 8 {
		b.WriteString("    .word ")
		end := i + 8
		if end > len(vals) {
			end = len(vals)
		}
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
}

func writeByteTable(b *strings.Builder, vals []byte) {
	for i := 0; i < len(vals); i += 12 {
		b.WriteString("    .byte ")
		end := i + 12
		if end > len(vals) {
			end = len(vals)
		}
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", vals[j])
		}
		b.WriteByte('\n')
	}
}
