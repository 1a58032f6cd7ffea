package source

import (
	"math"
	"reflect"
	"testing"
)

// walk samples src through a cursor at grid steps from..to-1 of step dt,
// the way the analytic steppers do, and fails on the first sample whose
// bits differ from src.Power(t_k). It returns the cursor for Finish.
func walk(t *testing.T, src PowerSource, dt float64, from, to int) HarvestCursor {
	t.Helper()
	tk := 0.0
	for k := 0; k < from; k++ {
		tk += dt
	}
	c := NewHarvestCursor(src, dt, tk, tk+float64(to-from)*dt)
	for k := from; k < to; k++ {
		got, want := c.Power(tk), src.Power(tk)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt %v, step %d (t=%v): cursor %v, Power %v", dt, k, tk, got, want)
		}
		tk += dt
	}
	return c
}

// assertTableExact requires every entry of the published table for
// (p, dt) to equal p.Power(t_k) bit for bit, and the table to hold at
// least minLen entries.
func assertTableExact(t *testing.T, p *Photovoltaic, dt float64, minLen int) {
	t.Helper()
	tab := lookupTable(pvKey(p, dt))
	if len(tab) < minLen {
		t.Fatalf("table for dt %v holds %d samples, want at least %d", dt, len(tab), minLen)
	}
	tk := 0.0
	for k, got := range tab {
		if want := p.Power(tk); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt %v: table[%d] (t=%v) = %v, Power %v", dt, k, tk, got, want)
		}
		tk += dt
	}
}

// FuzzHarvestTable checks the shared harvest table against the PV cell's
// Power for any shape, step and length: a fresh run that records, a
// second run that reads the table and extends it, and a run resumed
// mid-grid all sample exactly Power(t_k), and so does every published
// entry.
func FuzzHarvestTable(f *testing.F) {
	f.Add(7.0, 19.0, 1.5, 0.02, 1.0, uint16(3000), uint16(700))
	f.Add(0.5, 23.9, 2.0, 0.3, 37.5, uint16(4000), uint16(4000))
	f.Add(23.0, 1.0, 30.0, 1.0, 0.1, uint16(500), uint16(1))
	f.Add(7.0, 19.0, 0.0, 0.02, 1e-3, uint16(2), uint16(0))
	f.Add(7.0, 19.0, 1.5, math.NaN(), 600.0, uint16(300), uint16(100))
	f.Add(7.0, 19.0, 1.5, 0.02, 3600.0, uint16(65535), uint16(9))
	f.Fuzz(func(t *testing.T, dawn, dusk, edge, flicker, dt float64, n, resume uint16) {
		p := DefaultPhotovoltaic()
		p.DawnHour, p.DuskHour, p.EdgeHours, p.Flicker = dawn, dusk, edge, flicker
		first := int(n) % 4096
		total := first + int(n)%1024
		c := walk(t, p, dt, 0, first)
		c.Finish()
		if first > 0 {
			assertTableExact(t, p, dt, first)
		}
		c = walk(t, p, dt, 0, total)
		c.Finish()
		if total > 0 {
			assertTableExact(t, p, dt, total)
		}
		from := int(resume) % (total + 1)
		walk(t, p, dt, from, total+5)
	})
}

// TestHarvestTableReusedAcrossRuns: the second run on a key reads the
// first run's table instead of calling Power, a longer run extends it,
// and a shorter one leaves it alone.
func TestHarvestTableReusedAcrossRuns(t *testing.T) {
	p := DefaultPhotovoltaic()
	p.Flicker = 0.0301 // a key no other test uses
	const dt = 7.0
	key := pvKey(p, dt)
	c := walk(t, p, dt, 0, 5000)
	if got := lookupTable(key); got != nil {
		t.Fatalf("a run published %d samples before it finished", len(got))
	}
	if cap(c.rec) != 5002 {
		t.Errorf("a 5000-step run allocated room for %d samples, want 5002", cap(c.rec))
	}
	rec := &c.rec[0]
	c.Finish()
	tab := lookupTable(key)
	if len(tab) != 5000 {
		t.Fatalf("published %d samples, want 5000", len(tab))
	}
	if &tab[0] != rec {
		t.Error("a fresh table was copied on publish")
	}
	c = NewHarvestCursor(p, dt, 0, 0)
	if len(c.tab) != 5000 || c.k != 0 {
		t.Fatalf("a fresh run found %d samples at index %d, want 5000 at 0", len(c.tab), c.k)
	}
	c = walk(t, p, dt, 0, 3000)
	c.Finish()
	if got := lookupTable(key); &got[0] != &tab[0] {
		t.Error("a shorter run replaced the table")
	}
	c = walk(t, p, dt, 0, 8000)
	if len(c.rec) != 3000 {
		t.Errorf("a longer run recorded %d samples past the table, want 3000", len(c.rec))
	}
	c.Finish()
	assertTableExact(t, p, dt, 8000)
	if got := lookupTable(pvKey(p, 2*dt)); got != nil {
		t.Errorf("another step found a table of %d samples", len(got))
	}
}

// TestHarvestCursorResume: a cursor positioned at a restored clock finds
// that clock's grid index, and one off the grid or past the table reads
// nothing and records nothing.
func TestHarvestCursorResume(t *testing.T) {
	p := DefaultPhotovoltaic()
	p.Flicker = 0.0302
	const dt = 0.1 // inexact in binary, so t_k drifts from k·dt
	c := walk(t, p, dt, 0, 1000)
	c.Finish()
	tk := 0.0
	for k := 0; k < 1000; k++ {
		if c := NewHarvestCursor(p, dt, tk, tk); c.k != k || !c.recording {
			t.Fatalf("clock t_%d = %v: cursor at %d (recording %v)", k, tk, c.k, c.recording)
		}
		tk += dt
	}
	if c := NewHarvestCursor(p, dt, tk, tk); c.k != 1000 || !c.recording {
		t.Errorf("clock at the table's end: cursor at %d (recording %v), want 1000 and recording", c.k, c.recording)
	}
	for _, off := range []float64{0.05, -1, math.NaN(), tk + dt} {
		c := NewHarvestCursor(p, dt, off, off)
		if len(c.tab) != 0 || c.recording {
			t.Errorf("clock %v off the grid or past the table: cursor reads %d samples (recording %v)",
				off, len(c.tab), c.recording)
		}
	}
	walk(t, p, dt, 37, 1200) // resume mid-table and run past its end
}

// TestHarvestTableOnlyForPV: other power sources are sampled directly.
func TestHarvestTableOnlyForPV(t *testing.T) {
	cp := &ConstantPower{P: 1e-3}
	c := walk(t, cp, 1, 0, 100)
	if c.tab != nil || c.recording || c.rec != nil {
		t.Errorf("const-power cursor has a table (%d samples, recording %v)", len(c.tab), c.recording)
	}
	c.Finish()
}

// TestHarvestTableKeyCoversEveryParameter: the key holds the bits of
// every Photovoltaic field, so a parameter added later cannot silently
// share a table with a differently shaped cell.
func TestHarvestTableKeyCoversEveryParameter(t *testing.T) {
	var k tableKey
	if n := reflect.TypeOf(Photovoltaic{}).NumField(); n != len(k.pv) {
		t.Fatalf("Photovoltaic has %d fields, the table key covers %d", n, len(k.pv))
	}
	base := DefaultPhotovoltaic()
	v := reflect.ValueOf(base).Elem()
	for i := 0; i < v.NumField(); i++ {
		p := *base
		f := reflect.ValueOf(&p).Elem().Field(i)
		f.SetFloat(f.Float() + 1)
		if pvKey(&p, 1) == pvKey(base, 1) {
			t.Errorf("field %s is not part of the key", v.Type().Field(i).Name)
		}
	}
	if pvKey(base, 1) == pvKey(base, 2) {
		t.Error("dt is not part of the key")
	}
}

// TestHarvestTableByteCap pins the memory bound: one table holds at most
// 8 MiB of samples, all tables together at most 16 MiB and at most 64
// tables, and the least recently used table is evicted first.
func TestHarvestTableByteCap(t *testing.T) {
	if tableMaxLen*8 != 8<<20 || memoMaxBytes != 16<<20 || memoMaxTables != 64 {
		t.Fatalf("caps %d B per table, %d B and %d tables in total; want 8 MiB, 16 MiB and 64",
			tableMaxLen*8, memoMaxBytes, memoMaxTables)
	}
	checkMemo := func(when string) {
		t.Helper()
		memo.Lock()
		defer memo.Unlock()
		total := 0
		for _, e := range memo.tables {
			if len(e.tab) > tableMaxLen {
				t.Fatalf("%s: a table holds %d samples, cap %d", when, len(e.tab), tableMaxLen)
			}
			total += 8 * len(e.tab)
		}
		if total != memo.bytes || total > memoMaxBytes || len(memo.tables) > memoMaxTables {
			t.Fatalf("%s: %d tables of %d B (accounted %d B), caps %d and %d B",
				when, len(memo.tables), total, memo.bytes, memoMaxTables, memoMaxBytes)
		}
	}

	// A run longer than the cap records exactly one full table. The
	// cell is dark all day, so each sample is cheap.
	p := DefaultPhotovoltaic()
	p.DawnHour, p.DuskHour, p.Flicker = 30, 40, 0.0303
	const dt = 0.05
	c := walk(t, p, dt, 0, tableMaxLen+10)
	c.Finish()
	if got := len(lookupTable(pvKey(p, dt))); got != tableMaxLen {
		t.Fatalf("a run of %d steps published %d samples, want the cap %d", tableMaxLen+10, got, tableMaxLen)
	}
	checkMemo("after a full table")

	// Full-size tables under new keys evict the least recently used.
	keyN := func(i int) tableKey {
		q := *p
		q.Flicker = 0.0304 + float64(i)*1e-6
		return pvKey(&q, dt)
	}
	full := make([]float64, tableMaxLen)
	publishTable(keyN(0), full)
	checkMemo("after two full tables")
	lookupTable(pvKey(p, dt)) // the first table is now the most recent
	publishTable(keyN(1), full)
	checkMemo("after three full tables")
	if lookupTable(keyN(0)) != nil {
		t.Error("the least recently used table survived")
	}
	if lookupTable(pvKey(p, dt)) == nil {
		t.Error("a recently read table was evicted before the least recently used one")
	}

	// Many tiny tables stay within the table count.
	for i := 2; i < 2+2*memoMaxTables; i++ {
		publishTable(keyN(i), []float64{1})
		checkMemo("after tiny tables")
	}
}
