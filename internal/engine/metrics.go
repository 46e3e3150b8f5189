package engine

import (
	"fmt"
	"strings"
	"time"
)

// IterationStats records one processing+apply iteration. The JSON tags
// define the per-iteration trace schema of the -metrics-out snapshot;
// durations marshal as integer nanoseconds.
type IterationStats struct {
	// Index within the run, starting at 0.
	Index int `json:"index"`
	// UsedFull is true when the iteration loaded edges by streaming the
	// whole graph (FP path) rather than walking active vertices (IP path);
	// a pull iteration always sweeps the whole in-edge set.
	UsedFull bool `json:"used_full"`
	// Active is the number of active vertices entering the iteration.
	Active uint64 `json:"active"`
	// ActiveDegreeSum is the total out-degree of the active vertices (the
	// additional heuristic input Sec. IV.B says the inference box collects).
	// Every strategy processes exactly the out-edges of the active
	// vertices, so it is recorded from EdgesProcessed rather than probed
	// per vertex, and it is known only once the iteration has run.
	ActiveDegreeSum uint64 `json:"active_degree_sum"`
	// PredictorT is the inference-box value T = A/E computed for this
	// iteration (meaningful in hybrid mode; recorded in all modes).
	PredictorT float64 `json:"predictor_t"`
	// EdgesLoaded counts edges retrieved from the store; EdgesProcessed
	// counts those whose source was active (in IP mode they are equal).
	EdgesLoaded    uint64 `json:"edges_loaded"`
	EdgesProcessed uint64 `json:"edges_processed"`
	// TouchedVertices is how many destinations received messages.
	TouchedVertices uint64 `json:"touched_vertices"`
	// Duration is the wall time of the iteration; the per-phase durations
	// below partition it. MergeDuration is zero unless the iteration's
	// scatter split across workers: it is the fold of their private
	// buffers with Reduce. The folded values are identical to one
	// worker's when Reduce ignores order (min, max); a floating-point sum
	// folded in another order agrees only to rounding.
	Duration        time.Duration `json:"duration_ns"`
	ProcessDuration time.Duration `json:"process_ns"`
	MergeDuration   time.Duration `json:"merge_ns"`
	ApplyDuration   time.Duration `json:"apply_ns"`
}

// RunResult aggregates one engine run (one batch's worth of processing).
type RunResult struct {
	Algorithm  string           `json:"algorithm"`
	Mode       Mode             `json:"mode"`
	Iterations []IterationStats `json:"iterations"`
	// Totals across iterations.
	EdgesLoaded    uint64        `json:"edges_loaded"`
	EdgesProcessed uint64        `json:"edges_processed"`
	ActiveTotal    uint64        `json:"active_total"`
	Duration       time.Duration `json:"duration_ns"`
	// Converged is false only when the iteration guard tripped.
	Converged bool `json:"converged"`
	// FullIterations / IncrementalIterations count the per-iteration path
	// choices (in hybrid mode both can be non-zero).
	FullIterations        int `json:"full_iterations"`
	IncrementalIterations int `json:"incremental_iterations"`
}

// MarshalJSON renders a Mode by its String name so snapshots read
// "hybrid" rather than 2.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// ThroughputMEPS is the run's edges-loaded throughput in million edges per
// second — the y-axis of Figs. 11-13/15/16.
func (r RunResult) ThroughputMEPS() float64 {
	s := r.Duration.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.EdgesLoaded) / s / 1e6
}

// accumulate folds an iteration into the run totals.
func (r *RunResult) accumulate(it IterationStats) {
	r.Iterations = append(r.Iterations, it)
	r.EdgesLoaded += it.EdgesLoaded
	r.EdgesProcessed += it.EdgesProcessed
	r.ActiveTotal += it.Active
	r.Duration += it.Duration
	if it.UsedFull {
		r.FullIterations++
	} else {
		r.IncrementalIterations++
	}
}

// FormatTrace renders the per-iteration decisions as an aligned table —
// the inference-box trace the hybridengine example prints.
func (r RunResult) FormatTrace() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s run, mode %v: %d iterations (%d full, %d incremental), %d edges loaded\n",
		r.Algorithm, r.Mode, len(r.Iterations), r.FullIterations, r.IncrementalIterations, r.EdgesLoaded)
	sb.WriteString("iter  active    degreeSum  T           path         loaded      touched\n")
	for _, it := range r.Iterations {
		path := "incremental"
		if it.UsedFull {
			path = "full"
		}
		fmt.Fprintf(&sb, "%4d  %8d  %9d  %.6f  %-11s  %10d  %7d\n",
			it.Index, it.Active, it.ActiveDegreeSum, it.PredictorT, path, it.EdgesLoaded, it.TouchedVertices)
	}
	if !r.Converged {
		sb.WriteString("WARNING: iteration guard tripped before convergence\n")
	}
	return sb.String()
}

// Merge sums another run into r (used to aggregate a whole workload of
// batch-runs into one figure row). Per-iteration traces are concatenated so
// len(r.Iterations) always equals FullIterations+IncrementalIterations.
func (r *RunResult) Merge(other RunResult) {
	r.Iterations = append(r.Iterations, other.Iterations...)
	r.EdgesLoaded += other.EdgesLoaded
	r.EdgesProcessed += other.EdgesProcessed
	r.ActiveTotal += other.ActiveTotal
	r.Duration += other.Duration
	r.FullIterations += other.FullIterations
	r.IncrementalIterations += other.IncrementalIterations
	if !other.Converged {
		r.Converged = false
	}
}
