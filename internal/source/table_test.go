package source

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// walk samples src through a cursor at grid steps from..to-1 of step dt,
// the way the analytic steppers do, and fails on the first sample whose
// bits differ from src.Power(t_k). It returns the cursor.
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

// builds reports whether a run of n steps of dt has a table built for
// it: a positive step and a finite end. A run that never ends, or whose
// clock stands still or runs backwards, only reads what it finds.
func builds(dt float64, n int) bool {
	return n > 0 && dt > 0 && !math.IsInf(float64(n)*dt, 1)
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
// Power for any shape, step and length: a fresh run, which builds the
// table, a longer run, which extends it, and a run resumed mid-grid all
// sample exactly Power(t_k), and so does every published entry.
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
		walk(t, p, dt, 0, first)
		if builds(dt, first) {
			assertTableExact(t, p, dt, first)
		}
		walk(t, p, dt, 0, total)
		if builds(dt, total) {
			assertTableExact(t, p, dt, total)
		}
		from := int(resume) % (total + 1)
		walk(t, p, dt, from, total+5)
		if builds(dt, total+5) {
			assertTableExact(t, p, dt, total+5)
		}
	})
}

// TestHarvestTableReusedAcrossRuns: the first cursor on a key builds the
// table for its whole run up front, in one allocation; a second run
// reads that same array instead of calling Power, a shorter one leaves
// it alone, and a longer one replaces it with a longer copy.
func TestHarvestTableReusedAcrossRuns(t *testing.T) {
	p := DefaultPhotovoltaic()
	p.Flicker = 0.0301 // a key no other test uses
	const dt = 7.0     // exact, so t_k = 7k and the run's grid is 5000 instants
	key := pvKey(p, dt)
	c := NewPowerCursor(p, dt, 0, 5000*dt)
	tab := lookupTable(key)
	if len(tab) != 5000 || cap(tab) != 5002 {
		t.Fatalf("a 5000-step run built %d samples in room for %d, want 5000 in 5002", len(tab), cap(tab))
	}
	if &c.tab[0] != &tab[0] || c.k != 0 {
		t.Fatalf("the building cursor reads another array, or from index %d", c.k)
	}
	assertTableExact(t, p, dt, 5000)
	c = walk(t, p, dt, 0, 3000)
	if &c.tab[0] != &tab[0] {
		t.Error("a shorter run did not read the table")
	}
	if got := lookupTable(key); &got[0] != &tab[0] {
		t.Error("a shorter run replaced the table")
	}
	c = walk(t, p, dt, 0, 8000)
	if len(c.tab) != 8000 || &c.tab[0] == &tab[0] {
		t.Errorf("a longer run read %d samples (same array %v), want a new table of 8000",
			len(c.tab), &c.tab[0] == &tab[0])
	}
	assertTableExact(t, p, dt, 8000)
	if got := lookupTable(pvKey(p, 2*dt)); got != nil {
		t.Errorf("another step found a table of %d samples", len(got))
	}
}

var builtOnceRuns atomic.Int64

// TestSampleTableBuiltOncePerKey: cursors that start on one fresh key at
// once share one build: every one of them reads the same array. Run it
// with -race.
func TestSampleTableBuiltOncePerKey(t *testing.T) {
	p := DefaultPhotovoltaic()
	p.Flicker = 0.0305 + float64(builtOnceRuns.Add(1))*1e-9 // fresh under -count
	const dt, n = 1.0, 20000
	// The build pauses at its first sample, so the other cursors ask for
	// the key while it is in flight, however the goroutines are
	// scheduled; a second build would start in that window.
	fn := func(t float64) float64 {
		if t == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return p.Power(t)
	}
	cursors := make([]SampleCursor, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cursors[i] = newCursor(fn, pvKey(p, dt), dt, 0, n*dt)
		}()
	}
	close(start)
	wg.Wait()
	tab := lookupTable(pvKey(p, dt))
	if len(tab) != n {
		t.Fatalf("the table holds %d samples, want %d", len(tab), n)
	}
	for i, c := range cursors {
		if len(c.tab) != n || &c.tab[0] != &tab[0] {
			t.Errorf("cursor %d reads %d samples of its own array, want the one published table", i, len(c.tab))
		}
	}
	assertTableExact(t, p, dt, n)
}

// TestHarvestCursorResume: a cursor positioned at a restored clock finds
// that clock's grid index, and one off the grid, or past a table it may
// not extend, reads nothing. A run resumed on a fresh key builds the
// table from t_0 and reads it from the clock's index.
func TestHarvestCursorResume(t *testing.T) {
	p := DefaultPhotovoltaic()
	p.Flicker, p.DawnHour = 0.0302, 0 // dawn at t_0: every sample depends on t
	const dt = 0.1                    // inexact in binary, so t_k drifts from k·dt
	walk(t, p, dt, 37, 1200)          // resume mid-grid on a fresh key
	assertTableExact(t, p, dt, 1200)
	n := len(lookupTable(pvKey(p, dt)))
	tk := 0.0
	for k := 0; k <= n; k++ {
		if c := NewPowerCursor(p, dt, tk, tk); c.k != k || len(c.tab) != n {
			t.Fatalf("clock t_%d = %v: cursor at %d of %d samples, want %d of %d", k, tk, c.k, len(c.tab), k, n)
		}
		tk += dt
	}
	for _, off := range []float64{0.05, -1, math.NaN(), tk} {
		if c := NewPowerCursor(p, dt, off, math.Inf(1)); len(c.tab) != 0 {
			t.Errorf("clock %v off the grid or past the table: cursor reads %d samples", off, len(c.tab))
		}
	}
	if got := len(lookupTable(pvKey(p, dt))); got != n {
		t.Errorf("a run with no end moved the table from %d to %d samples", n, got)
	}
	walk(t, p, dt, 1100, 1500) // resume inside the table and run past its end
	assertTableExact(t, p, dt, 1500)
}

// TestSampleTableOnlyForPVAndSine: the PV cell and the sine family get a
// table; every other source is sampled directly, and a cursor over one
// builds and reads nothing.
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
		if c.Tabled() || c.tab != nil {
			t.Errorf("%s cursor has a table of %d samples", name, len(c.tab))
		}
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
// sine or rectified sine and any step: a fresh run, which builds the
// table, a longer run with no end, which reads it and builds nothing, a
// longer run that skips over a stretch (a fast-forward hop) inside or
// past the table and extends it, and a run resumed mid-grid all sample
// exactly VoltageFn(t_k), and so does every published entry; the
// generator behind another diode drop too.
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
		tabled := key.kind != noTable
		first := int(n) % 4096
		total := first + int(n)%1024
		walkVoltage(t, vs, dt, 0, first, true)
		if tabled && builds(dt, first) {
			assertEntriesExact(t, key, fn, dt, first)
		}
		had := len(lookupTable(key))
		walkVoltage(t, vs, dt, 0, total, false)
		if got := len(lookupTable(key)); got != had {
			t.Fatalf("a run with no end moved the table from %d to %d samples", had, got)
		}

		// A hop of skip%300 instants at from, then the rest of the run.
		from, hop := int(resume)%(total+1), int(skip)%300
		end := total + hop + 5
		c := walkCursor(t, NewVoltageCursor(vs, dt, 0, float64(end)*dt), fn, dt, 0, from)
		c.Skip(hop)
		walkCursor(t, c, fn, dt, from+hop, end)
		if tabled && builds(dt, end) {
			assertEntriesExact(t, key, fn, dt, end)
		}
		walkVoltage(t, vs, dt, from, total+5, true)

		// The same generator behind another diode drop reads a table of
		// its own.
		if r, ok := vs.(*Rectified); ok {
			walkVoltage(t, HalfWave(r.Source, r.DiodeV+0.25), dt, 0, total, true)
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

	// A run longer than the cap builds exactly one full table, which
	// serves the run's first tableMaxLen steps. The cell is dark all
	// day, so each sample is cheap.
	p := DefaultPhotovoltaic()
	p.DawnHour, p.DuskHour, p.Flicker = 30, 40, 0.0303
	const dt = 0.05
	walk(t, p, dt, 0, tableMaxLen+10)
	if got := len(lookupTable(pvKey(p, dt))); got != tableMaxLen {
		t.Fatalf("a run of %d steps built %d samples, want the cap %d", tableMaxLen+10, got, tableMaxLen)
	}
	checkMemo("after a full table")
	full := lookupTable(pvKey(p, dt))
	if c := walk(t, p, dt, 0, tableMaxLen+20); &c.tab[0] != &full[0] {
		t.Error("a longer run rebuilt a table already at the cap")
	}
	assertTableExact(t, p, dt, tableMaxLen)

	// Full-size tables under new keys evict the least recently used.
	keyN := func(i int) tableKey {
		q := *p
		q.Flicker = 0.0304 + float64(i)*1e-6
		return pvKey(&q, dt)
	}
	zero := func(float64) float64 { return 0 }
	sharedTable(keyN(0), zero, dt, math.MaxFloat64)
	checkMemo("after two full tables")
	lookupTable(pvKey(p, dt)) // the first table is now the most recent
	sharedTable(keyN(1), zero, dt, math.MaxFloat64)
	checkMemo("after three full tables")
	if lookupTable(keyN(0)) != nil {
		t.Error("the least recently used table survived")
	}
	if lookupTable(pvKey(p, dt)) == nil {
		t.Error("a recently read table was evicted before the least recently used one")
	}

	// Many tiny tables, one sample each, stay within the table count.
	for i := 2; i < 2+2*memoMaxTables; i++ {
		sharedTable(keyN(i), zero, dt, dt/2)
		checkMemo("after tiny tables")
	}
}
