package source

import (
	"math"
	"sync"
)

// The sample table. The analytic steppers (eneutral, taskburst) sample
// their PowerSource, and the lab rail its VoltageSource, on the grid
// t_0 = 0, t_{k+1} = fl(t_k + dt), and sweeps, explorations and the
// service re-run one unchanged supply while they vary the node. So the
// package keeps one process-wide memo of the samples on that grid per
// source parameter values and dt. t_k does not depend on the run's
// duration, so a longer table serves a shorter run as its prefix.
//
// Runs build the tables themselves: a run on the grid records the
// samples it computes past the end of the table it found, and publishes
// them once it has covered its duration. A cancelled run publishes
// nothing, and no run ever waits for another. Every entry is the value
// the source's sampler returns at t_k, so reading the table is
// bit-identical to sampling.
//
// Which sources get a table is a trade of the sample's cost against the
// table's memory, which stays resident for the life of the process:
//
//   - pv (*Photovoltaic) in the analytic steppers: two sines and a
//     raised-cosine edge per sample.
//   - sine (*SignalGenerator with Frequency ≠ 0) and rectified-sine
//     (*Rectified over such a generator) on the rail's voltage path: one
//     math.Sin per 5 µs step, where a rail that sleeps through most of
//     each cycle (Fig. 7) spends a third of its run. The Fig. 7 run's
//     table is 100,000 samples, 781 KiB.
//   - Not wind: its Fig. 8 gust run is 1,000,000 samples, 7.6 MiB held
//     for the process's life (+58% of a lab stream's peak RSS), to save
//     about 35 ns of a ~190 ns step.
//   - Not pv on the rail: the duty-cycle run's table is 3.05 MiB, which
//     with Fig. 7's adds about 30% to a lab stream's RSS, for about
//     19 ns of a ~157 ns step.
//   - Not the square wave, dc or const-power: a sample costs less than
//     a table load.

const (
	// tableMaxLen caps one table at 8 MiB of samples. Steps past it are
	// computed by every run.
	tableMaxLen = 8 << 20 / 8
	// memoMaxBytes caps the samples all tables hold together at 16 MiB;
	// the least recently used tables are evicted to make room.
	memoMaxBytes = 16 << 20
	// memoMaxTables caps the number of tables, so that many tiny tables
	// cannot grow the index without bound.
	memoMaxTables = 64
)

// tableKind says which sampler a table holds, so tables of different
// sources never share a key.
type tableKind uint8

const (
	noTable tableKind = iota
	pvTable
	sineTable
	rectifiedSineTable
)

// tableKey identifies one table: its kind, the bits of every parameter
// of the source, and the bits of dt. Bits, not values, so NaN
// parameters still find their table and -0 and +0 never share one.
type tableKey struct {
	kind  tableKind
	param [7]uint64
	dt    uint64
}

func pvKey(p *Photovoltaic, dt float64) tableKey {
	b := math.Float64bits
	return tableKey{
		kind: pvTable,
		param: [7]uint64{
			b(p.BaseCurrent), b(p.PeakCurrent), b(p.OpVoltage),
			b(p.DawnHour), b(p.DuskHour), b(p.EdgeHours), b(p.Flicker),
		},
		dt: b(dt),
	}
}

// voltageKey returns the table key for vs sampled at step dt, with kind
// noTable for a source that gets no table.
func voltageKey(vs VoltageSource, dt float64) tableKey {
	var g *SignalGenerator
	k := tableKey{dt: math.Float64bits(dt)}
	switch s := vs.(type) {
	case *SignalGenerator:
		g, k.kind = s, sineTable
	case *Rectified:
		g, _ = s.Source.(*SignalGenerator)
		k.kind = rectifiedSineTable
		k.param[5] = math.Float64bits(s.DiodeV)
	}
	if g == nil || g.Frequency == 0 {
		return tableKey{}
	}
	b := math.Float64bits
	k.param[0], k.param[1], k.param[2] = b(g.Amplitude), b(g.Frequency), b(g.Offset)
	k.param[3], k.param[4] = b(g.Phase), b(g.Rs)
	return k
}

// memoTable is one published table. tab is never written after it is
// published, so readers share it without a lock.
type memoTable struct {
	tab  []float64
	used uint64 // memo.clock at the last lookup or publish
}

// memo holds every published table. Its lock guards only the index: no
// sample is computed or copied under it.
var memo struct {
	sync.Mutex
	tables map[tableKey]*memoTable
	bytes  int    // 8 × the samples of every table
	clock  uint64 // advances on every lookup hit and publish
}

// lookupTable returns the published table for k (nil when none).
func lookupTable(k tableKey) []float64 {
	memo.Lock()
	defer memo.Unlock()
	e := memo.tables[k]
	if e == nil {
		return nil
	}
	memo.clock++
	e.used = memo.clock
	return e.tab
}

// publishTable stores tab for k unless the memo already holds one at
// least as long, evicting the least recently used tables to stay within
// memoMaxBytes and memoMaxTables. len(tab) must not exceed tableMaxLen.
func publishTable(k tableKey, tab []float64) {
	memo.Lock()
	defer memo.Unlock()
	if old := memo.tables[k]; old != nil {
		if len(old.tab) >= len(tab) {
			return
		}
		memo.bytes -= 8 * len(old.tab)
		delete(memo.tables, k)
	}
	if memo.tables == nil {
		memo.tables = make(map[tableKey]*memoTable)
	}
	for len(memo.tables) >= memoMaxTables || memo.bytes+8*len(tab) > memoMaxBytes {
		var lru tableKey
		var oldest *memoTable
		for key, e := range memo.tables {
			if oldest == nil || e.used < oldest.used {
				lru, oldest = key, e
			}
		}
		memo.bytes -= 8 * len(oldest.tab)
		delete(memo.tables, lru)
	}
	memo.clock++
	memo.tables[k] = &memoTable{tab: tab, used: memo.clock}
	memo.bytes += 8 * len(tab)
}

// SampleCursor samples one source along a stepper's grid t_0 = 0,
// t_{k+1} = fl(t_k + dt). Where the shared table covers the step it
// reads the table, past its end it calls the source's sampler, and on a
// run that started on the grid it records those samples for Finish to
// publish. Build one with NewPowerCursor or NewVoltageCursor; the zero
// value has no source to sample, and its Finish does nothing.
type SampleCursor struct {
	fn  func(float64) float64 // the source's sampler
	tab []float64             // the shared table as found; read-only
	k   int                   // grid index of the next sample

	key       tableKey
	recording bool      // rec extends tab by the samples past its end
	rec       []float64 // fn(t_k) for k = len(tab), len(tab)+1, …
	recCap    int       // rec's capacity once a sample misses the table
}

// NewPowerCursor returns a cursor over src.Power for a stepper of step
// dt whose clock runs from t to end; see newCursor.
func NewPowerCursor(src PowerSource, dt, t, end float64) SampleCursor {
	if p, ok := src.(*Photovoltaic); ok {
		return newCursor(src.Power, pvKey(p, dt), dt, t, end)
	}
	return SampleCursor{fn: src.Power}
}

// NewVoltageCursor returns a cursor over VoltageFn(vs) for a stepper of
// step dt whose clock runs from t to end; see newCursor.
func NewVoltageCursor(vs VoltageSource, dt, t, end float64) SampleCursor {
	return newCursor(VoltageFn(vs), voltageKey(vs, dt), dt, t, end)
}

// newCursor finds the grid index of t by replaying the accumulation, up
// to the end of the table only, and requires t_k == t exactly; a clock
// off the grid or past the table reads nothing from the table and
// records nothing, and so does a source of kind noTable. t is 0 for a
// fresh run and the restored clock for a resumed one; end only sizes
// the recording. The source's parameters must not change while the
// cursor is in use.
func newCursor(fn func(float64) float64, key tableKey, dt, t, end float64) SampleCursor {
	c := SampleCursor{fn: fn, key: key}
	if key.kind == noTable {
		return c
	}
	tab := lookupTable(key)
	k, tk := 0, 0.0
	for k < len(tab) && tk < t {
		tk += dt
		k++
	}
	if tk != t {
		return c
	}
	c.tab, c.k, c.recording = tab, k, true
	// The run takes about (end−t)/dt steps; two more absorb the clock's
	// rounding, so the recording is allocated once and published as is.
	// An unknown length (infinite or NaN) sizes nothing: the recording
	// then grows as it goes.
	c.recCap = tableMaxLen - len(tab)
	switch n := (end-t)/dt + 2; {
	case math.IsInf(n, 1) || !(n > 0):
		c.recCap = 0
	case n < float64(c.recCap):
		c.recCap = int(n)
	}
	return c
}

// Tabled reports whether the cursor's source gets a table at all; a
// caller may sample an untabled source directly instead.
func (c *SampleCursor) Tabled() bool { return c.key.kind != noTable }

// Sample returns the source's sample at the cursor's next grid instant
// t_k, which the caller passes as t, and advances to t_{k+1}.
func (c *SampleCursor) Sample(t float64) float64 {
	if c.k < len(c.tab) {
		c.k++
		return c.tab[c.k-1]
	}
	return c.miss(t)
}

// miss computes a sample past the table and records it while the table
// it would extend stays within tableMaxLen.
func (c *SampleCursor) miss(t float64) float64 {
	v := c.fn(t)
	c.k++
	if c.recording {
		if c.rec == nil {
			c.rec = make([]float64, 0, c.recCap)
		}
		if len(c.tab)+len(c.rec) < tableMaxLen {
			c.rec = append(c.rec, v)
		} else {
			c.recording = false
		}
	}
	return v
}

// Skip advances the cursor over n grid instants its caller did not
// sample (a fast-forward hop). The table still serves the instants after
// a hop that ends inside it, but a hop past its end leaves a gap no
// table can hold: the recording ends there, and Finish publishes what
// came before.
func (c *SampleCursor) Skip(n int) {
	c.k += n
	if c.k > len(c.tab)+len(c.rec) {
		c.recording = false
	}
}

// Finish publishes the samples the cursor recorded as the longer table
// for its source and step. Call it once the run has covered its
// duration; a run that stops early never calls it, and publishes
// nothing. A second call does nothing.
func (c *SampleCursor) Finish() {
	switch {
	case len(c.rec) == 0:
	case len(c.tab) == 0 && cap(c.rec) == c.recCap:
		// Allocated once at the run's length: publish it as is.
		publishTable(c.key, c.rec)
	default:
		tab := make([]float64, len(c.tab)+len(c.rec))
		copy(tab, c.tab)
		copy(tab[len(c.tab):], c.rec)
		publishTable(c.key, tab)
	}
	c.rec, c.recording = nil, false
}
