package analysis

// Forward dataflow over the CFG. One worklist fixpoint serves both
// lattice polarities used by the checks:
//
//   - must-analysis (lockflow.go's held-lock sets): meet is intersection,
//     an undefined block state is TOP, so predecessors that have not
//     been reached yet simply don't constrain the meet;
//   - may-analysis (bufretain's taint sets): meet is union, an
//     undefined state is BOTTOM (empty), which the same skip-undefined
//     rule models exactly.
//
// Both cases are monotone in the same direction once facts only shrink
// (must) or only grow (may) across iterations, so a sweep-until-stable
// loop converges; function bodies are small enough that priority
// ordering would be over-engineering.

// SolveForward computes the block-entry states of a forward dataflow
// problem over cfg. The boundary value is Entry's in-state. transfer
// receives a private clone of the in-state and must return the
// out-state (mutating and returning its argument is fine). meet must
// not mutate its operands; clone must deep-copy; equal drives
// convergence detection. Blocks never reached from Entry have no entry
// in the result map.
func SolveForward[T any](
	cfg *CFG,
	boundary T,
	meet func(a, b T) T,
	clone func(T) T,
	equal func(a, b T) bool,
	transfer func(b *CFGBlock, in T) T,
) map[*CFGBlock]T {
	preds := make(map[*CFGBlock][]*CFGBlock, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}

	in := make(map[*CFGBlock]T)
	out := make(map[*CFGBlock]T)
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			var cur T
			curSet := false
			if b == cfg.Entry {
				cur = clone(boundary)
				curSet = true
			} else {
				for _, p := range preds[b] {
					po, ok := out[p]
					if !ok {
						continue // predecessor not reached yet
					}
					if !curSet {
						cur = clone(po)
						curSet = true
					} else {
						cur = meet(cur, po)
					}
				}
			}
			if !curSet {
				continue // unreachable from Entry
			}
			if old, ok := in[b]; !ok || !equal(old, cur) {
				in[b] = cur
				changed = true
			}
			next := transfer(b, clone(in[b]))
			if old, ok := out[b]; !ok || !equal(old, next) {
				out[b] = next
				changed = true
			}
		}
	}
	return in
}
