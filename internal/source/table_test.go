package source

import (
	"math"
	"reflect"
	"testing"
)

// walk samples src through a cursor at grid steps from..to-1 of step dt,
// the way the analytic steppers do, and fails on the first sample whose
// bits differ from src.Power(t_k). It returns the cursor for Finish.
func walk(t *testing.T, src PowerSource, dt float64, from, to int) SampleCursor {
	t.Helper()
	tk := gridAt(dt, from)
	return walkCursor(t, NewPowerCursor(src, dt, tk, tk+float64(to-from)*dt), src.Power, dt, from, to)
}

// walkVoltage is walk for a voltage source, against VoltageFn(vs). An
// unsized walk passes the length the rail passes when it knows none.
func walkVoltage(t *testing.T, vs VoltageSource, dt float64, from, to int, sized bool) SampleCursor {
	t.Helper()
	tk := gridAt(dt, from)
	end := math.Inf(1)
	if sized {
		end = tk + float64(to-from)*dt
	}
	return walkCursor(t, NewVoltageCursor(vs, dt, tk, end), VoltageFn(vs), dt, from, to)
}

// gridAt returns t_k of the grid of step dt.
func gridAt(dt float64, k int) float64 {
	tk := 0.0
	for range k {
		tk += dt
	}
	return tk
}

func walkCursor(t *testing.T, c SampleCursor, fn func(float64) float64, dt float64, from, to int) SampleCursor {
	t.Helper()
	tk := gridAt(dt, from)
	for k := from; k < to; k++ {
		got, want := c.Sample(tk), fn(tk)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt %v, step %d (t=%v): cursor %v, source %v", dt, k, tk, got, want)
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
	assertEntriesExact(t, pvKey(p, dt), p.Power, dt, minLen)
}

// assertEntriesExact requires every entry of the published table for key
// to equal fn(t_k) bit for bit, and the table to hold at least minLen
// entries.
func assertEntriesExact(t *testing.T, key tableKey, fn func(float64) float64, dt float64, minLen int) {
	t.Helper()
	tab := lookupTable(key)
	if len(tab) < minLen {
		t.Fatalf("table for dt %v holds %d samples, want at least %d", dt, len(tab), minLen)
	}
	tk := 0.0
	for k, got := range tab {
		if want := fn(tk); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt %v: table[%d] (t=%v) = %v, source %v", dt, k, tk, got, want)
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
	c = NewPowerCursor(p, dt, 0, 0)
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
		if c := NewPowerCursor(p, dt, tk, tk); c.k != k || !c.recording {
			t.Fatalf("clock t_%d = %v: cursor at %d (recording %v)", k, tk, c.k, c.recording)
		}
		tk += dt
	}
	if c := NewPowerCursor(p, dt, tk, tk); c.k != 1000 || !c.recording {
		t.Errorf("clock at the table's end: cursor at %d (recording %v), want 1000 and recording", c.k, c.recording)
	}
	for _, off := range []float64{0.05, -1, math.NaN(), tk + dt} {
		c := NewPowerCursor(p, dt, off, off)
		if len(c.tab) != 0 || c.recording {
			t.Errorf("clock %v off the grid or past the table: cursor reads %d samples (recording %v)",
				off, len(c.tab), c.recording)
		}
	}
	walk(t, p, dt, 37, 1200) // resume mid-table and run past its end
}

// TestSampleTableOnlyForPVAndSine: the PV cell and the sine family get a
// table; every other source is sampled directly, and a cursor over one
// reads, records and publishes nothing.
func TestSampleTableOnlyForPVAndSine(t *testing.T) {
	gen := &SignalGenerator{Amplitude: 3.6, Frequency: 20, Rs: 150}
	dcGen := &SignalGenerator{Amplitude: 3.6, Rs: 150}
	tabled := map[string]SampleCursor{
		"pv":             NewPowerCursor(DefaultPhotovoltaic(), 1, 0, 1),
		"sine":           NewVoltageCursor(gen, 1e-3, 0, 1),
		"rectified-sine": NewVoltageCursor(HalfWave(gen, 0.2), 1e-3, 0, 1),
	}
	for name, c := range tabled {
		if !c.Tabled() {
			t.Errorf("%s has no table", name)
		}
	}
	untabled := map[string]SampleCursor{
		"const-power":      walk(t, &ConstantPower{P: 1e-3}, 1, 0, 100),
		"dc":               walkVoltage(t, &ConstantVoltage{V: 3.3, Rs: 10}, 1e-3, 0, 100, true),
		"square":           walkVoltage(t, &SquareWaveVoltage{High: 3.3, OnTime: 0.004, OffTime: 0.15}, 1e-3, 0, 100, true),
		"wind":             walkVoltage(t, HalfWave(DefaultWindTurbine(), 0.2), 1e-3, 0, 100, true),
		"sine at 0 Hz":     walkVoltage(t, dcGen, 1e-3, 0, 100, true),
		"rectified dc":     walkVoltage(t, HalfWave(dcGen, 0.2), 1e-3, 0, 100, true),
		"gated sine":       walkVoltage(t, &GatedVoltage{Source: gen, Windows: [][2]float64{{0, 1}}}, 1e-3, 0, 100, true),
		"hidden rectified": walkVoltage(t, struct{ VoltageSource }{HalfWave(gen, 0.2)}, 1e-3, 0, 100, true),
	}
	for name, c := range untabled {
		if c.Tabled() || c.tab != nil || c.recording || c.rec != nil {
			t.Errorf("%s cursor has a table (%d samples, recording %v, %d recorded)",
				name, len(c.tab), c.recording, len(c.rec))
		}
		c.Finish()
	}
}

// TestHarvestTableKeyCoversEveryParameter: the key holds the bits of
// every field of the sources that get a table — the PV cell, the signal
// generator and the rectifier — so a parameter added later cannot
// silently share a table with a differently shaped source.
func TestHarvestTableKeyCoversEveryParameter(t *testing.T) {
	var k tableKey
	if n := reflect.TypeOf(Photovoltaic{}).NumField(); n != len(k.param) {
		t.Fatalf("Photovoltaic has %d fields, the table key covers %d", n, len(k.param))
	}
	// The generator's fields, then the rectifier's DiodeV (its other
	// field is the generator).
	if n, m := reflect.TypeOf(SignalGenerator{}).NumField(), reflect.TypeOf(Rectified{}).NumField(); n != 5 || m != 2 {
		t.Fatalf("SignalGenerator has %d fields and Rectified %d, the key covers 5 and 2", n, m)
	}
	// perturb returns, for every float field of the struct v points to,
	// a copy with that field moved, named after the field.
	perturb := func(v any) map[string]any {
		out := map[string]any{}
		e := reflect.ValueOf(v).Elem()
		for i := 0; i < e.NumField(); i++ {
			if e.Field(i).Kind() != reflect.Float64 {
				continue
			}
			c := reflect.New(e.Type())
			c.Elem().Set(e)
			f := c.Elem().Field(i)
			f.SetFloat(f.Float() + 1)
			out[e.Type().Field(i).Name] = c.Interface()
		}
		return out
	}

	base := DefaultPhotovoltaic()
	for name, p := range perturb(base) {
		if pvKey(p.(*Photovoltaic), 1) == pvKey(base, 1) {
			t.Errorf("Photovoltaic.%s is not part of the key", name)
		}
	}
	if pvKey(base, 1) == pvKey(base, 2) {
		t.Error("dt is not part of the PV key")
	}

	gen := &SignalGenerator{Amplitude: 3.6, Frequency: 20, Offset: 0.1, Phase: 0.2, Rs: 150}
	rect := HalfWave(gen, 0.2)
	for name, g := range perturb(gen) {
		g := g.(*SignalGenerator)
		if voltageKey(g, 1) == voltageKey(gen, 1) {
			t.Errorf("SignalGenerator.%s is not part of the sine key", name)
		}
		if voltageKey(HalfWave(g, 0.2), 1) == voltageKey(rect, 1) {
			t.Errorf("SignalGenerator.%s is not part of the rectified-sine key", name)
		}
	}
	for name, r := range perturb(rect) {
		if voltageKey(r.(*Rectified), 1) == voltageKey(rect, 1) {
			t.Errorf("Rectified.%s is not part of the key", name)
		}
	}
	if voltageKey(rect, 1) == voltageKey(rect, 2) || voltageKey(gen, 1) == voltageKey(gen, 2) {
		t.Error("dt is not part of the voltage keys")
	}
	// Kinds keep a generator, the same generator rectified with no drop
	// and a PV cell whose bits happened to match apart.
	if voltageKey(gen, 1) == voltageKey(HalfWave(gen, 0), 1) {
		t.Error("a sine and a rectified sine share a key")
	}
	pvLike := voltageKey(gen, 1)
	pvLike.kind = pvTable
	if pvLike == voltageKey(gen, 1) {
		t.Error("the kind is not part of the key")
	}
}

// FuzzVoltageTable checks the shared table against VoltageFn for any
// sine or rectified sine and any step: a fresh run that records, a
// longer run that reads the table and extends it, a run that skips over
// a stretch (a fast-forward hop) inside or past the table, and a run
// resumed mid-grid all sample exactly VoltageFn(t_k), and so does every
// published entry; the generator behind another diode drop too.
func FuzzVoltageTable(f *testing.F) {
	f.Add(3.6, 20.0, 0.0, 0.0, 0.2, 5e-6, true, uint16(3000), uint16(700), uint16(40))
	f.Add(4.5, 20.0, 0.0, 0.0, 0.0, 5e-6, false, uint16(4000), uint16(4000), uint16(0))
	f.Add(1.0, -3.0, 2.0, 1.0, -0.5, 0.1, true, uint16(500), uint16(1), uint16(9))
	f.Add(0.0, 1e9, 0.5, 0.0, 0.2, 1e-3, true, uint16(2), uint16(0), uint16(3))
	f.Add(3.6, math.NaN(), 0.0, 0.0, 0.2, 1e-4, true, uint16(300), uint16(100), uint16(1000))
	f.Add(3.6, 20.0, math.Inf(1), 0.0, math.NaN(), 3600.0, true, uint16(65535), uint16(9), uint16(65535))
	f.Fuzz(func(t *testing.T, amp, freq, offset, phase, diodeV, dt float64, rectified bool, n, resume, skip uint16) {
		var vs VoltageSource = &SignalGenerator{Amplitude: amp, Frequency: freq, Offset: offset, Phase: phase, Rs: 100}
		if rectified {
			vs = HalfWave(vs, diodeV)
		}
		fn, key := VoltageFn(vs), voltageKey(vs, dt)
		first := int(n) % 4096
		total := first + int(n)%1024
		c := walkVoltage(t, vs, dt, 0, first, true)
		c.Finish()
		if first > 0 && key.kind != noTable {
			assertEntriesExact(t, key, fn, dt, first)
		}
		c = walkVoltage(t, vs, dt, 0, total, false)
		c.Finish()
		if total > 0 && key.kind != noTable {
			assertEntriesExact(t, key, fn, dt, total)
		}

		// A hop of skip%300 instants at from, then the rest of the run.
		from, hop := int(resume)%(total+1), int(skip)%300
		c = walkVoltage(t, vs, dt, 0, from, false)
		c.Skip(hop)
		c = walkCursor(t, c, fn, dt, from+hop, total+hop+5)
		c.Finish()
		if key.kind != noTable {
			assertEntriesExact(t, key, fn, dt, total)
		}
		walkVoltage(t, vs, dt, from, total+5, true)

		// The same generator behind another diode drop reads a table of
		// its own.
		if r, ok := vs.(*Rectified); ok {
			walkVoltage(t, HalfWave(r.Source, r.DiodeV+0.25), dt, 0, total, false)
		}
	})
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
