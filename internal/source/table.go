package source

import (
	"math"
	"sync"
)

// The harvest table. The analytic steppers (eneutral, taskburst) sample
// their PowerSource on the grid t_0 = 0, t_{k+1} = fl(t_k + dt), and
// sweeps and explorations re-run one unchanged supply while they vary
// the node. Each indoor-PV sample costs two sines and a raised-cosine
// edge, so the package keeps one process-wide memo of Power(t_k) per
// Photovoltaic parameter values and dt. t_k does not depend on the run's
// duration, so a longer table serves a shorter run as its prefix.
//
// Runs build the tables themselves: a run on the grid records the
// samples it computes past the end of the table it found, and publishes
// them once it has covered its duration. A cancelled run publishes
// nothing, and no run ever waits for another. Every entry is the value
// Power(t_k) returns, so reading the table is bit-identical to calling
// Power.
//
// Of the registry's two power sources only the PV cell gets a table: a
// constant power costs less than a table load.

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

// tableKey identifies one table: the bits of every Photovoltaic
// parameter and of dt. Bits, not values, so NaN parameters still find
// their table and -0 and +0 never share one.
type tableKey struct {
	pv [7]uint64
	dt uint64
}

func pvKey(p *Photovoltaic, dt float64) tableKey {
	b := math.Float64bits
	return tableKey{
		pv: [7]uint64{
			b(p.BaseCurrent), b(p.PeakCurrent), b(p.OpVoltage),
			b(p.DawnHour), b(p.DuskHour), b(p.EdgeHours), b(p.Flicker),
		},
		dt: b(dt),
	}
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

// HarvestCursor samples a PowerSource along an analytic stepper's grid
// t_0 = 0, t_{k+1} = fl(t_k + dt). Where the shared table covers the
// step it reads the table, past its end it calls Power, and on a run
// that started on the grid it records those samples for Finish to
// publish. The zero value is not usable; build one with
// NewHarvestCursor.
type HarvestCursor struct {
	src PowerSource
	tab []float64 // the shared table as found; read-only
	k   int       // grid index of the next sample while k < len(tab)

	key       tableKey
	recording bool      // rec extends tab by the samples past its end
	rec       []float64 // Power(t_k) for k = len(tab), len(tab)+1, …
	recCap    int       // rec's capacity once a sample misses the table
}

// NewHarvestCursor returns a cursor over src for a stepper of step dt
// whose clock runs from t to end: t is 0 for a fresh run and the
// restored clock for a resumed one. The cursor finds the grid index of
// t by replaying the accumulation, up to the end of the table only, and
// requires t_k == t exactly; a clock off the grid or past the table
// reads nothing from the table and records nothing. end only sizes the
// recording. The source's parameters must not change while the cursor
// is in use.
func NewHarvestCursor(src PowerSource, dt, t, end float64) HarvestCursor {
	pv, ok := src.(*Photovoltaic)
	if !ok {
		return HarvestCursor{src: src}
	}
	c := HarvestCursor{src: src, key: pvKey(pv, dt)}
	tab := lookupTable(c.key)
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
	c.recCap = tableMaxLen - len(tab)
	switch n := (end-t)/dt + 2; {
	case n >= float64(c.recCap):
	case n > 0:
		c.recCap = int(n)
	default: // NaN too
		c.recCap = 0
	}
	return c
}

// Power returns src.Power(t) for the cursor's next grid instant t_k,
// which the caller passes as t, and advances to t_{k+1}.
func (c *HarvestCursor) Power(t float64) float64 {
	if c.k < len(c.tab) {
		c.k++
		return c.tab[c.k-1]
	}
	return c.miss(t)
}

// miss computes a sample past the table and records it while the table
// it would extend stays within tableMaxLen.
func (c *HarvestCursor) miss(t float64) float64 {
	p := c.src.Power(t)
	if c.recording {
		if c.rec == nil {
			c.rec = make([]float64, 0, c.recCap)
		}
		if len(c.tab)+len(c.rec) < tableMaxLen {
			c.rec = append(c.rec, p)
		} else {
			c.recording = false
		}
	}
	return p
}

// Finish publishes the samples the cursor recorded as the longer table
// for its source and step. Call it once the run has covered its
// duration; a run that stops early never calls it, and publishes
// nothing. A second call does nothing.
func (c *HarvestCursor) Finish() {
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
