package periph_test

import (
	"sync"
	"testing"

	"repro/examples"
	"repro/internal/circuit"
	"repro/internal/lab"
	"repro/internal/mcu"
	"repro/internal/periph"
	"repro/internal/scenario"
)

func TestBankRegisterDefaults(t *testing.T) {
	b := periph.NewBank()
	if b.ReadReg(periph.RegADCGain) != 1 {
		t.Error("default gain should be 1")
	}
	if b.ReadReg(periph.RegADCCtrl) != 0 {
		t.Error("ADC should power on disabled")
	}
	// Disabled ADC reads zero and does not advance the sequencer.
	if b.ReadReg(periph.RegADCData) != 0 || b.SamplesRead != 0 {
		t.Error("disabled ADC must read 0")
	}
}

func TestADCGainAndSequence(t *testing.T) {
	b := periph.NewBank()
	b.WriteReg(periph.RegADCCtrl, 1)
	b.WriteReg(periph.RegADCGain, 3)
	v0 := b.ReadReg(periph.RegADCData)
	v1 := b.ReadReg(periph.RegADCData)
	if v0 != 3*periph.RawSample(0, 0) || v1 != 3*periph.RawSample(0, 1) {
		t.Errorf("gained samples = %d,%d want %d,%d", v0, v1, 3*periph.RawSample(0, 0), 3*periph.RawSample(0, 1))
	}
	// Channel select changes the raw value.
	b.WriteReg(periph.RegADCChan, 2)
	if got := b.ReadReg(periph.RegADCData); got != 3*periph.RawSample(2, 2) {
		t.Errorf("channel sample = %d, want %d", got, 3*periph.RawSample(2, 2))
	}
	// Saturation at 255.
	b.WriteReg(periph.RegADCGain, 255)
	if got := b.ReadReg(periph.RegADCData); got != 255 {
		t.Errorf("saturated sample = %d, want 255", got)
	}
}

func TestRadioHandshake(t *testing.T) {
	b := periph.NewBank()
	b.WriteReg(periph.RegRadTx, 0x42) // unconfigured: dropped
	if b.TxDelivered != 0 || b.TxDropped != 1 {
		t.Error("unconfigured radio must drop")
	}
	b.WriteReg(periph.RegRadCfg, periph.RadioMagic)
	b.WriteReg(periph.RegRadTx, 0x42)
	if b.TxDelivered != 1 {
		t.Error("configured radio must deliver")
	}
}

func TestAuxStateRoundTrip(t *testing.T) {
	b := periph.NewBank()
	b.WriteReg(periph.RegADCCtrl, 1)
	b.WriteReg(periph.RegADCGain, 7)
	b.WriteReg(periph.RegADCChan, 3)
	b.WriteReg(periph.RegRadCfg, periph.RadioMagic)
	b.ReadReg(periph.RegADCData) // advance seq
	b.ReadReg(periph.RegADCData)
	snap := b.Capture()
	b.Reset()
	if b.ReadReg(periph.RegADCGain) != 1 {
		t.Fatal("reset did not restore defaults")
	}
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restoring a Capture payload: %v", err)
	}
	if b.ReadReg(periph.RegADCGain) != 7 || b.ReadReg(periph.RegADCChan) != 3 ||
		b.ReadReg(periph.RegRadCfg) != periph.RadioMagic {
		t.Error("restore lost register state")
	}
	// Sequence continues where it left off.
	if got := b.ReadReg(periph.RegADCData); got != 7*periph.RawSample(3, 2) {
		t.Errorf("post-restore sample = %d, want %d", got, 7*periph.RawSample(3, 2))
	}
}

func TestRestoreRejectsMalformedPayloads(t *testing.T) {
	b := periph.NewBank()
	b.WriteReg(periph.RegADCCtrl, 1)
	b.WriteReg(periph.RegADCGain, 7)
	b.WriteReg(periph.RegADCChan, 3)
	b.WriteReg(periph.RegRadCfg, periph.RadioMagic)
	b.ReadReg(periph.RegADCData) // seq = 1
	want := b.Capture()

	bad := [][]byte{
		nil,
		{},
		{1, 2}, // truncated
		make([]byte, len(want)-1),
		make([]byte, len(want)+1), // trailing garbage
		make([]byte, 64),
	}
	for _, payload := range bad {
		if err := b.Restore(payload); err == nil {
			t.Errorf("Restore accepted a %d-byte payload", len(payload))
		}
		// A rejected restore must not have touched any register: the
		// bank still captures to exactly the pre-call state.
		if got := b.Capture(); string(got) != string(want) {
			t.Fatalf("failed restore mutated state: % x -> % x (payload %d bytes)",
				want, got, len(payload))
		}
	}
	// The exact Capture length still restores.
	if err := b.Restore(want); err != nil {
		t.Fatalf("round-trip after rejections: %v", err)
	}
}

func TestExpectedSumReference(t *testing.T) {
	// Hand-check a tiny case: n=2, gain=2, channel 0.
	want := uint16(2*periph.RawSample(0, 0)) + uint16(2*periph.RawSample(0, 1))
	if got := periph.ExpectedSum(2, 2, 0); got != want {
		t.Errorf("periph.ExpectedSum = %d, want %d", got, want)
	}
}

// runSpec runs a lab spec through the scenario layer and returns its
// case results.
func runSpec(t *testing.T, sp *scenario.Spec) []lab.Result {
	t.Helper()
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]lab.Result, len(rep.Cases))
	for i, c := range rep.Cases {
		out[i] = c.Result
	}
	return out
}

func TestSenseWorkloadStablePower(t *testing.T) {
	// Under stable power the guest must reproduce the host reference sum
	// and deliver every transmission.
	sp, err := scenario.Parse([]byte(`{"name": "stable", "workload": "sense64",
		"storage": {"c": "10u"}, "source": {"name": "dc", "params": {"rs": 50}},
		"duration": 0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	res := runSpec(t, sp)[0]
	if !res.Bank {
		t.Fatal("sense64 ran without a peripheral bank")
	}
	if res.Completions == 0 || res.WrongResults != 0 {
		t.Fatalf("stable run: %d ok, %d wrong", res.Completions, res.WrongResults)
	}
	if res.TxDropped != 0 {
		t.Errorf("%d transmissions dropped under stable power", res.TxDropped)
	}
	if res.TxDelivered == 0 {
		t.Error("no transmissions delivered")
	}
}

// periphSpec loads the curated naive-vs-aware testbed: sense64 on the
// intermittent square supply, with a runtime axis over hibernus and
// hibernus-periph.
func periphSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	sp, err := examples.Scenario("periph-sense-hibernus")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// periphRuns runs the curated testbed once for every test that reads it:
// case 0 is hibernus, case 1 hibernus-periph.
var periphRuns = sync.OnceValues(func() ([]lab.Result, error) {
	sp, err := examples.Scenario("periph-sense-hibernus")
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunModel(sp, scenario.RunOptions{})
	if err != nil {
		return nil, err
	}
	return []lab.Result{rep.Cases[0].Result, rep.Cases[1].Result}, nil
})

func TestNaiveCheckpointingCorruptsPeripheralWork(t *testing.T) {
	// The paper's discussion-gap, demonstrated: hibernus restores CPU and
	// RAM perfectly, but the restored program believes it already
	// configured the ADC gain and the radio — which a brown-out silently
	// reset. Results are wrong and transmissions vanish.
	runs, err := periphRuns()
	if err != nil {
		t.Fatal(err)
	}
	res := runs[0]
	if res.Stats.BrownOuts == 0 {
		t.Fatal("testbed produced no outages")
	}
	if res.WrongResults == 0 {
		t.Error("naive restore should produce wrong results (stale calibration)")
	}
	if res.TxDropped == 0 {
		t.Error("naive restore should drop transmissions (deaf radio)")
	}
}

func TestAwareCheckpointingPreservesPeripheralWork(t *testing.T) {
	runs, err := periphRuns()
	if err != nil {
		t.Fatal(err)
	}
	res := runs[1]
	if res.Stats.BrownOuts == 0 {
		t.Fatal("testbed produced no outages")
	}
	if res.Completions == 0 {
		t.Fatal("aware system made no progress")
	}
	if res.WrongResults != 0 {
		t.Errorf("aware restore still produced %d wrong results", res.WrongResults)
	}
	if res.TxDropped != 0 {
		t.Errorf("aware restore still dropped %d transmissions", res.TxDropped)
	}
}

func TestAwareSnapshotIsLarger(t *testing.T) {
	// Peripheral awareness costs snapshot bytes — the trade the paper's
	// discussion implies. Verify it is visible and bounded, on the device
	// the lab builds for each runtime of the curated testbed.
	snapBytes := func(runtime string) int {
		sp := periphSpec(t)
		sp.Sweep = nil
		if err := sp.Apply("runtime", runtime); err != nil {
			t.Fatal(err)
		}
		st, err := sp.Setup()
		if err != nil {
			t.Fatal(err)
		}
		st.Duration = 1e-3
		n := 0
		st.OnTick = func(_ float64, d *mcu.Device, _ *circuit.Rail) { n = d.SnapshotBytes(mcu.SnapFull) }
		if _, err := lab.Run(st); err != nil {
			t.Fatal(err)
		}
		return n
	}
	naive, aware := snapBytes("hibernus"), snapBytes("hibernus-periph")
	if aware <= naive {
		t.Errorf("aware snapshot (%d B) should exceed naive (%d B)", aware, naive)
	}
	if aware-naive > 64 {
		t.Errorf("peripheral state added %d B; expected a small register file", aware-naive)
	}
}
