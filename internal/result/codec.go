package result

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// codecVersion frames the serialised report format. Bump it when the
// wire struct changes shape; decoders reject other versions so a stale
// blob can never be half-read into the wrong fields. v2 added per-case
// structured metrics, which the design-space explorer reads off cached
// reports; v3 replaced the rendered trace CSV with the columnar trace
// blob, so disk- and peer-served reports answer windowed trace queries
// without a recompute — older blobs decode as misses.
const codecVersion = 3

// wireReport is the persisted/transferred form of a
// scenario.ModelReport: the disk CAS blob payload and the peer
// cache-transfer body. It carries the rendered artifacts the service
// contract is about (Text served verbatim, byte for byte; the trace as
// the columnar blob the CSV is deterministically re-rendered from) plus
// the metadata the job and exploration layers need: hash, sweep flag,
// and per-case name + structured metrics. Raw lab.Result fields stay
// unpersisted — every number worth caching is in the metrics map by the
// model contract.
type wireReport struct {
	Codec      int        `json:"codec"`
	Engine     string     `json:"engine"`
	SpecHash   string     `json:"spec_hash"`
	Sweep      bool       `json:"sweep,omitempty"`
	Text       string     `json:"text"`
	SimSeconds float64    `json:"sim_seconds"`
	Cases      []wireCase `json:"cases,omitempty"`

	// Trace is the columnar trace blob (trace.EncodeRecorder); the CSV
	// is rendered from the decoded recorder when a client asks for it.
	Trace []byte `json:"trace,omitempty"`
}

// wireCase is one persisted case: its display name and its structured
// metrics.
type wireCase struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// EncodeReport serialises a report for the disk CAS and peer transfer.
func EncodeReport(rep *scenario.ModelReport) ([]byte, error) {
	w := wireReport{
		Codec:      codecVersion,
		Engine:     EngineVersion,
		SpecHash:   rep.SpecHash,
		Sweep:      rep.Sweep,
		Text:       rep.Text,
		SimSeconds: rep.SimSeconds,
	}
	if rep.Trace != nil {
		w.Trace = trace.EncodeRecorder(rep.Trace)
	}
	for _, c := range rep.Cases {
		w.Cases = append(w.Cases, wireCase{Name: c.Name, Metrics: c.Metrics})
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("result: encoding report %s: %w", rep.SpecHash, err)
	}
	return b, nil
}

// DecodeReport deserialises an EncodeReport payload. It rejects unknown
// codec versions and reports produced by a different engine version —
// both would otherwise let a stale blob impersonate a current result.
func DecodeReport(data []byte) (*scenario.ModelReport, error) {
	var w wireReport
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("result: decoding report: %w", err)
	}
	if w.Codec != codecVersion {
		return nil, fmt.Errorf("result: report codec %d, want %d", w.Codec, codecVersion)
	}
	if w.Engine != EngineVersion {
		return nil, fmt.Errorf("result: report from engine %q, current engine is %q", w.Engine, EngineVersion)
	}
	if w.SpecHash == "" || w.Text == "" {
		return nil, fmt.Errorf("result: decoded report missing spec hash or text")
	}
	rep := &scenario.ModelReport{
		SpecHash:   w.SpecHash,
		Sweep:      w.Sweep,
		Text:       w.Text,
		SimSeconds: w.SimSeconds,
		Cases:      make([]scenario.ModelCase, len(w.Cases)),
	}
	if w.Trace != nil {
		rec, err := trace.DecodeRecorder(w.Trace)
		if err != nil {
			return nil, fmt.Errorf("result: decoding report trace: %w", err)
		}
		// The columnar codec round-trips the recorder losslessly, so a
		// CSV rendered from it matches the original byte for byte.
		rep.Trace = rec
	}
	for i, c := range w.Cases {
		rep.Cases[i] = scenario.ModelCase{Name: c.Name, Metrics: c.Metrics}
	}
	return rep, nil
}
