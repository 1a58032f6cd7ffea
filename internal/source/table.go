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
// A table is built once, up front: the first cursor for a key computes
// fn(t_k) for every grid instant from t_0 = 0 up to its run's end, and
// cursors that ask for the key while that build is in flight wait for
// it instead of building a copy of their own. Builds for different keys
// run at once, and none holds the memo's lock while it samples. A run
// that reaches past the published table builds a longer one that copies
// the old prefix. Every entry is the value the source's sampler returns
// at t_k, so reading the table is bit-identical to sampling.
//
// A build costs what a stepwise run spends sampling anyway: at most
// about 55 ms for the largest table (tableMaxLen PV samples) and 2 ms
// for the Fig. 7 run's 100,000 rectified-sine samples on a 2-vCPU
// x86-64 host. A fast-forward run, which samples only the steps it does
// not hop, pays it once per process for each supply it is the first to
// run.
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
	next float64 // t_{len(tab)}, the grid instant a longer table resumes at
	used uint64  // memo.clock at the last lookup or publish
}

// memo holds every published table and the keys whose build is in
// flight. Its lock guards only the index: no sample is computed or
// copied under it.
var memo = struct {
	sync.Mutex
	tables   map[tableKey]*memoTable
	building map[tableKey]chan struct{} // closed once the key's build is published
	bytes    int                        // 8 × the samples of every table
	clock    uint64                     // advances on every lookup hit and publish
}{tables: map[tableKey]*memoTable{}, building: map[tableKey]chan struct{}{}}

// sharedTable returns the table for key, first building a longer one
// when the published table stops short of end, the run's last instant
// (exclusive). An infinite end, or a step that never moves the clock
// toward it, builds nothing. At most one build per key is in flight: a
// caller that finds one waits for it and looks again.
func sharedTable(key tableKey, fn func(float64) float64, dt, end float64) []float64 {
	memo.Lock()
	for memo.building[key] != nil {
		ch := memo.building[key]
		memo.Unlock()
		<-ch
		memo.Lock()
	}
	var old memoTable
	if e := memo.tables[key]; e != nil {
		memo.clock++
		e.used = memo.clock
		old = *e
	}
	if !(old.next < end) || !(dt > 0) || math.IsInf(end, 1) || len(old.tab) == tableMaxLen {
		memo.Unlock()
		return old.tab
	}
	ch := make(chan struct{})
	memo.building[key] = ch
	memo.Unlock()

	// The run takes about (end−next)/dt more steps; two more absorb the
	// clock's rounding, so the table is allocated once.
	n := tableMaxLen
	if m := (end - old.next) / dt; m < float64(n-len(old.tab)-2) {
		n = len(old.tab) + int(m) + 2
	}
	tab := append(make([]float64, 0, n), old.tab...)
	tk := old.next
	for len(tab) < tableMaxLen && tk < end {
		tab = append(tab, fn(tk))
		tk += dt
	}

	memo.Lock()
	defer memo.Unlock()
	delete(memo.building, key)
	close(ch)
	publishTable(key, &memoTable{tab: tab, next: tk})
	return tab
}

// publishTable stores e for k in place of any older table, evicting the
// least recently used tables to stay within memoMaxBytes and
// memoMaxTables. The caller holds memo's lock, and len(e.tab) must not
// exceed tableMaxLen.
func publishTable(k tableKey, e *memoTable) {
	if old := memo.tables[k]; old != nil {
		memo.bytes -= 8 * len(old.tab)
		delete(memo.tables, k)
	}
	for len(memo.tables) >= memoMaxTables || memo.bytes+8*len(e.tab) > memoMaxBytes {
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
	e.used = memo.clock
	memo.tables[k] = e
	memo.bytes += 8 * len(e.tab)
}

// SampleCursor samples one source along a stepper's grid t_0 = 0,
// t_{k+1} = fl(t_k + dt). Where the shared table covers the step it
// reads the table, and past its end it calls the source's sampler.
// Build one with NewPowerCursor or NewVoltageCursor; the zero value has
// no source to sample.
type SampleCursor struct {
	fn     func(float64) float64 // the source's sampler
	tab    []float64             // the shared table; read-only
	k      int                   // grid index of the next sample
	tabled bool                  // the source gets a table at all
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

// newCursor takes the shared table for key, built up to end if it is
// shorter (see sharedTable), then finds the grid index of t by replaying
// the accumulation, up to the end of the table only, and requires
// t_k == t exactly; a clock off the grid or past the table reads nothing
// from the table, and neither does a source of kind noTable. t is 0 for
// a fresh run and the restored clock for a resumed one. The source's
// parameters must not change while the cursor is in use.
func newCursor(fn func(float64) float64, key tableKey, dt, t, end float64) SampleCursor {
	c := SampleCursor{fn: fn, tabled: key.kind != noTable}
	if !c.tabled {
		return c
	}
	tab := sharedTable(key, fn, dt, end)
	k, tk := 0, 0.0
	for k < len(tab) && tk < t {
		tk += dt
		k++
	}
	if tk == t {
		c.tab, c.k = tab, k
	}
	return c
}

// Tabled reports whether the cursor's source gets a table at all; a
// caller may sample an untabled source directly instead.
func (c *SampleCursor) Tabled() bool { return c.tabled }

// Sample returns the source's sample at the cursor's next grid instant
// t_k, which the caller passes as t, and advances to t_{k+1}.
func (c *SampleCursor) Sample(t float64) float64 {
	if c.k < len(c.tab) {
		c.k++
		return c.tab[c.k-1]
	}
	return c.miss(t)
}

// miss samples the source at an instant past the table. It stays out of
// line so that Sample's table read inlines into the steppers' loops.
//
//go:noinline
func (c *SampleCursor) miss(t float64) float64 {
	c.k++
	return c.fn(t)
}

// Skip advances the cursor over n grid instants its caller did not
// sample (a fast-forward hop); the table still serves the instants
// after it.
func (c *SampleCursor) Skip(n int) { c.k += n }
