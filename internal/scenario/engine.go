package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// Engine is the single execution contract every spec runs under: a
// resumable stepper the package driver (RunModel / ResumeModel) builds
// with newEngine and advances chunk by chunk, checking cancellation and
// checkpoint requests between steps. There are two, shared by every
// model: a single run, whose Step is stepChunk integration steps, and a
// sweep, whose Step is one wave of cases whose workers check the same
// channels between their chunks. So cancellation and checkpointing keep
// a tight latency without the models hand-rolling their own
// Observe/Abort/progress plumbing.
type Engine interface {
	// Step runs one bounded chunk of work. A step whose parallel
	// workers saw Cancel or Checkpoint closed returns nil without
	// advancing, so the driver re-checks its channels and acts.
	Step() error

	// Done reports whether the run is complete and Report may be called.
	Done() bool

	// Checkpoint serialises the engine's state for a later resume via
	// ResumeModel. The returned bytes are model-private; the driver
	// wraps them in a versioned envelope bound to the spec hash.
	Checkpoint() ([]byte, error)

	// Report finalises and renders the run. Call exactly once, after
	// Done.
	Report() (*ModelReport, error)
}

// stepChunk bounds one Step of a run, for single runs and sweep cases
// of every model alike: enough integration steps to amortise the
// between-step channel checks to noise, few enough that cancellation
// and checkpoint latency stay in the milliseconds.
const stepChunk = 16384

// CheckpointError is returned by RunModel/ResumeModel when the options'
// Checkpoint channel interrupted the run: State is the complete
// envelope to hand back to ResumeModel later. It deliberately does not
// wrap sweep.ErrCanceled — a checkpointed run is suspended, not failed.
type CheckpointError struct {
	State []byte
}

// Error implements error.
func (e *CheckpointError) Error() string { return "scenario: run checkpointed" }

// checkpointVersion versions the envelope layout; bump on incompatible
// change so stale blobs are rejected instead of misinterpreted.
const checkpointVersion = 3

// checkpointEnvelope binds a model's private checkpoint state to the
// spec that produced it, so a resume against a different (or edited)
// spec fails loudly instead of silently diverging. Sum is the sha256 of
// Data: a damaged state fails loudly too, rather than resuming to a
// different report.
type checkpointEnvelope struct {
	V     int    `json:"v"`
	Model string `json:"model"`
	Hash  string `json:"hash"`
	Data  []byte `json:"data,omitempty"`
	Sum   string `json:"sum"`
}

// checkpointSum is the envelope's checksum of the model-private state.
func checkpointSum(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// encodeCheckpoint wraps model-private state in the envelope bound to
// the spec's model and its content hash.
func encodeCheckpoint(sp *Spec, hash string, state []byte) ([]byte, error) {
	return json.Marshal(checkpointEnvelope{
		V:     checkpointVersion,
		Model: sp.ModelName(),
		Hash:  hash,
		Data:  state,
		Sum:   checkpointSum(state),
	})
}

// decodeCheckpoint validates the envelope against the spec's model and
// content hash and returns the model-private state.
func decodeCheckpoint(sp *Spec, hash string, blob []byte) ([]byte, error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("scenario: invalid checkpoint: %w", err)
	}
	if env.V != checkpointVersion {
		return nil, fmt.Errorf("scenario: checkpoint version %d (want %d)", env.V, checkpointVersion)
	}
	if env.Model != sp.ModelName() {
		return nil, fmt.Errorf("scenario: checkpoint is for model %q, spec selects %q", env.Model, sp.ModelName())
	}
	if env.Hash != hash {
		return nil, fmt.Errorf("scenario: checkpoint spec hash %s does not match %s", env.Hash, hash)
	}
	if env.Sum != checkpointSum(env.Data) {
		return nil, fmt.Errorf("scenario: checkpoint state is damaged (sha256 mismatch)")
	}
	return env.Data, nil
}

// RunModel executes a validated spec (a single run without sweep axes,
// a parallel grid sweep with them) on its model's engine and renders
// the report, stamped with the spec's content address. It is the single
// entry point every front-end (CLI, daemon, explorer, figures) funnels
// through. Cancellation returns sweep.ErrCanceled; a checkpoint request
// returns *CheckpointError carrying the resumable state.
func RunModel(sp *Spec, opts RunOptions) (*ModelReport, error) {
	return drive(sp, opts, false, nil)
}

// ResumeModel continues a run from a checkpoint produced by a previous
// RunModel/ResumeModel interruption. The envelope must match the spec's
// model and content hash; the resumed run's report and trace are
// byte-identical to an uninterrupted run of the same spec.
func ResumeModel(sp *Spec, checkpoint []byte, opts RunOptions) (*ModelReport, error) {
	return drive(sp, opts, true, checkpoint)
}

// drive is the shared engine loop: hash the spec once, build the engine
// (fresh, or from the checkpoint envelope when resume is set), then
// alternate between the options' control channels and Step until done.
// Cancel wins over Checkpoint when both have fired.
func drive(sp *Spec, opts RunOptions, resume bool, envelope []byte) (*ModelReport, error) {
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	var state []byte
	if resume {
		if state, err = decodeCheckpoint(sp, hash, envelope); err != nil {
			return nil, err
		}
	}
	m, err := LookupModel(sp.ModelName())
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(m, sp, opts, state)
	if err != nil {
		return nil, err
	}
	for !eng.Done() {
		if canceled(opts.Cancel) {
			return nil, sweep.ErrCanceled
		}
		if canceled(opts.Checkpoint) {
			state, err := eng.Checkpoint()
			if err != nil {
				return nil, fmt.Errorf("scenario: checkpoint: %w", err)
			}
			env, err := encodeCheckpoint(sp, hash, state)
			if err != nil {
				return nil, err
			}
			return nil, &CheckpointError{State: env}
		}
		if err := eng.Step(); err != nil {
			return nil, err
		}
	}
	rep, err := eng.Report()
	if err != nil {
		return nil, err
	}
	rep.SpecHash = hash
	return rep, nil
}

// newEngine builds the model's engine for the spec: a single run
// without sweep axes, a sweep of such runs with them. checkpoint is nil
// for a fresh run, or the engine state a previous Checkpoint produced
// (envelope already verified).
func newEngine(m Model, sp *Spec, opts RunOptions, checkpoint []byte) (Engine, error) {
	if sp.HasSweep() {
		return newSweepEngine(m, sp, opts, checkpoint)
	}
	return newSingleEngine(m, sp, opts, checkpoint)
}
