package graphtinker

// Session is the high-level orchestration layer for dynamic-graph
// analytics: one GraphTinker store plus any number of attached vertex
// programs, kept up to date as batches stream in. It packages the paper's
// two-step loop (apply batch, then run analytics on the current graph
// state) behind a single call, choosing the correct recomputation strategy
// per attachment when deletions invalidate monotone incremental state.

import (
	"fmt"
	"sort"
	"sync"
)

// AttachmentPolicy controls how an attached program reacts to batches.
type AttachmentPolicy struct {
	// Mode is the engine execution model for insertion batches.
	Mode Mode
	// Threshold overrides the hybrid inference-box threshold (0 = 0.02).
	Threshold float64
	// MaxIterations guards non-converging programs (0 = vertex count + 2).
	MaxIterations int
	// RecomputeOnDelete, when true (the default for monotone programs),
	// makes any batch that contains deletions trigger a from-scratch run:
	// min-based programs cannot raise properties incrementally, exactly
	// why the paper evaluates post-deletion analytics in full-processing
	// mode (Fig. 15).
	RecomputeOnDelete bool
}

// DefaultAttachmentPolicy runs hybrid with recompute-on-delete.
func DefaultAttachmentPolicy() AttachmentPolicy {
	return AttachmentPolicy{Mode: Hybrid, RecomputeOnDelete: true}
}

// Session owns a store and its attached engines.
//
// Single-writer contract: the underlying Graph is not safe for concurrent
// mutation, and attached programs recompute over the live graph, so every
// mutating or engine-running entry point (ApplyBatch, Recompute, Attach,
// Detach) and every snapshot of session state serializes on one internal
// mutex. Concurrent ApplyBatch callers are therefore safe — they are
// applied one at a time — and an attached program never observes a graph
// mutating under it. The async stream (StartStream / ApplyAsync) funnels
// through the same mutex.
type Session struct {
	mu      sync.Mutex
	graph   *Graph
	engines map[string]*sessionAttachment

	rec      *UpdateRecorder
	batches  int
	inserted int
	deleted  int

	stream *SessionStream
	dur    *sessionDurability
	ops    []Update // the batch being applied, inserts then deletes (reused)
}

type sessionAttachment struct {
	engine *Engine
	policy AttachmentPolicy

	// Aggregated telemetry across every run this attachment has performed.
	runs       int
	recomputes int
	aggregate  RunResult
}

func (a *sessionAttachment) record(res RunResult, recomputed bool) {
	a.runs++
	if recomputed {
		a.recomputes++
	}
	if a.runs == 1 {
		a.aggregate = res
	} else {
		a.aggregate.Merge(res)
	}
}

// NewSession builds a session over a fresh store.
func NewSession(cfg Config) (*Session, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{graph: g, engines: make(map[string]*sessionAttachment)}, nil
}

// Graph exposes the underlying store (queries are fine; mutate only
// through the session so attached engines stay consistent).
func (s *Session) Graph() *Graph { return s.graph }

// Attach registers a named program. The name keys later Value/Results
// lookups.
func (s *Session) Attach(name string, prog Program, policy AttachmentPolicy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.engines[name]; dup {
		return fmt.Errorf("graphtinker: program %q already attached", name)
	}
	eng, err := NewEngine(s.graph, prog, EngineOptions{
		Mode:          policy.Mode,
		Threshold:     policy.Threshold,
		MaxIterations: policy.MaxIterations,
	})
	if err != nil {
		return err
	}
	s.engines[name] = &sessionAttachment{engine: eng, policy: policy}
	return nil
}

// Detach removes a named program; it reports whether it was attached.
func (s *Session) Detach(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.engines[name]; !ok {
		return false
	}
	delete(s.engines, name)
	return true
}

// Attached lists the attached program names, sorted.
func (s *Session) Attached() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attachedLocked()
}

func (s *Session) attachedLocked() []string {
	names := make([]string, 0, len(s.engines))
	for n := range s.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Batch is one update interval: insertions and deletions applied together
// before analytics run.
type Batch struct {
	Insert []Edge
	Delete []Edge
}

// BatchOutcome reports what one ApplyBatch did.
type BatchOutcome struct {
	// Inserted / Deleted are the numbers of edges actually added/removed
	// (duplicates and absentees excluded).
	Inserted int
	Deleted  int
	// Runs holds each attached program's engine result, keyed by name.
	Runs map[string]RunResult
	// Recomputed lists the programs that ran from scratch because the
	// batch contained deletions.
	Recomputed []string
	// DurabilityErr is non-nil when the session is durable and the batch
	// could not be logged: the batch was NOT applied (a durable session
	// never acknowledges state the WAL does not cover). See
	// Session.EnableDurability.
	DurabilityErr error `json:"-"`
	// CheckpointErr is non-nil when the batch WAS applied and WAL-logged
	// but the auto-checkpoint that followed it failed. Do not re-submit the
	// batch — it is durable; the un-compacted tail simply stays in the WAL
	// until a later Checkpoint succeeds.
	CheckpointErr error `json:"-"`
}

// ApplyBatch applies the updates to the store, then runs every attached
// program on the new graph state per its policy. Safe for concurrent
// callers: batches serialize on the session mutex (see the type comment),
// so attached programs always recompute over a quiescent graph.
func (s *Session) ApplyBatch(b Batch) BatchOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyBatchLocked(b)
}

func (s *Session) applyBatchLocked(b Batch) BatchOutcome {
	out := BatchOutcome{Runs: make(map[string]RunResult, len(s.engines))}
	// One op slice is both what a durable session logs and what the graph
	// applies.
	s.ops = s.ops[:0]
	for _, e := range b.Insert {
		s.ops = append(s.ops, InsertUpdate(e.Src, e.Dst, e.Weight))
	}
	for _, e := range b.Delete {
		s.ops = append(s.ops, DeleteUpdate(e.Src, e.Dst))
	}
	if s.dur != nil {
		// Log before apply: a batch is acknowledged only once the WAL
		// covers it, so recovery can never miss an acknowledged batch.
		if err := s.dur.appendOps(s.ops); err != nil {
			out.DurabilityErr = err
			return out
		}
	}
	out.Inserted, out.Deleted = s.graph.ApplyOps(s.ops)
	s.batches++
	s.inserted += out.Inserted
	s.deleted += out.Deleted

	hasDeletes := out.Deleted > 0
	for _, name := range s.attachedLocked() {
		att := s.engines[name]
		var res RunResult
		recomputed := hasDeletes && att.policy.RecomputeOnDelete
		if recomputed {
			res = att.engine.RunFromScratch()
			out.Recomputed = append(out.Recomputed, name)
		} else {
			res = att.engine.RunAfterBatch(b.Insert)
		}
		att.record(res, recomputed)
		out.Runs[name] = res
	}
	if s.dur != nil {
		s.dur.sinceCkpt += uint64(len(s.ops))
		if every := s.dur.opts.SnapshotEvery; every > 0 && s.dur.sinceCkpt >= every {
			// The batch is already logged and applied; a checkpoint failure
			// must not masquerade as a refused batch (callers honoring the
			// DurabilityErr contract would re-submit and double-apply it).
			if err := s.checkpointLocked(); err != nil {
				out.CheckpointErr = err
			}
		}
	}
	return out
}

// Recompute forces a named program to run from scratch now.
func (s *Session) Recompute(name string) (RunResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	att, ok := s.engines[name]
	if !ok {
		return RunResult{}, fmt.Errorf("graphtinker: no program %q attached", name)
	}
	res := att.engine.RunFromScratch()
	att.record(res, true)
	return res, nil
}

// EnableMetrics attaches an update-path recorder to the session's store so
// subsequent inserts, deletes and finds sample latency and probe-distance
// histograms. Idempotent; returns the recorder (also reachable later via
// MetricsSnapshot). The recorder is safe to snapshot concurrently with
// updates.
func (s *Session) EnableMetrics() *UpdateRecorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec == nil {
		s.rec = NewUpdateRecorder()
		s.graph.Instrument(s.rec)
	}
	return s.rec
}

// ProgramMetrics aggregates one attachment's engine runs.
type ProgramMetrics struct {
	// Runs counts engine invocations; Recomputes counts those forced from
	// scratch (deletion batches under RecomputeOnDelete, or Recompute).
	Runs       int `json:"runs"`
	Recomputes int `json:"recomputes"`
	// Aggregate merges every run: totals summed, per-iteration traces
	// concatenated.
	Aggregate RunResult `json:"aggregate"`
}

// SessionMetrics is a session's observability snapshot, as
// MetricsSnapshot returns it: ApplyBatch totals, the store's counters,
// the update histograms once EnableMetrics is on, and each attached
// program's aggregated runs. It marshals to JSON.
type SessionMetrics struct {
	// Batches / Inserted / Deleted count ApplyBatch work so far.
	Batches  int `json:"batches"`
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Store is the store's operation-counter snapshot.
	Store Stats `json:"store"`
	// Updates holds the latency/probe histograms; nil until EnableMetrics.
	Updates *RecorderSnapshot `json:"updates,omitempty"`
	// Programs aggregates each attachment's runs, keyed by name.
	Programs map[string]ProgramMetrics `json:"programs"`
}

// MetricsSnapshot captures the current session-wide metrics. Safe to call
// at any time; histograms are read atomically (concurrent updates may land
// in or out of the snapshot, but never corrupt it).
func (s *Session) MetricsSnapshot() SessionMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := SessionMetrics{
		Batches:  s.batches,
		Inserted: s.inserted,
		Deleted:  s.deleted,
		Store:    s.graph.Stats(),
		Programs: make(map[string]ProgramMetrics, len(s.engines)),
	}
	if s.rec != nil {
		snap := s.rec.Snapshot()
		m.Updates = &snap
	}
	for name, att := range s.engines {
		m.Programs[name] = ProgramMetrics{
			Runs:       att.runs,
			Recomputes: att.recomputes,
			Aggregate:  att.aggregate,
		}
	}
	return m
}

// Value returns the named program's current property of vertex v.
func (s *Session) Value(name string, v uint64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	att, ok := s.engines[name]
	if !ok {
		return 0, fmt.Errorf("graphtinker: no program %q attached", name)
	}
	return att.engine.Value(v), nil
}

// Engine exposes the named program's engine (read-mostly use; while
// batches may be applying concurrently, prefer Value, which serializes on
// the session mutex).
func (s *Session) Engine(name string) (*Engine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	att, ok := s.engines[name]
	if !ok {
		return nil, false
	}
	return att.engine, true
}
