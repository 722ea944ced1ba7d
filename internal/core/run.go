package core

import (
	"mapit/internal/trace"
)

// Run executes MAP-IT (Alg 1) over a sanitised trace dataset:
//
//  1. build other sides (§4.2) and neighbour sets (§4.3)
//  2. repeat { add inferences (§4.4); remove inferences (§4.5) }
//     until the post-remove state repeats (§4.6)
//  3. infer links to low-visibility and NAT stubs (§4.8)
func Run(s *trace.Sanitized, cfg Config) (*Result, error) {
	return RunEvidence(EvidenceFrom(s), cfg)
}

// RunEvidence executes MAP-IT over pre-collected evidence (see
// Collector for streaming corpora that never fit in memory).
func RunEvidence(ev *Evidence, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Compile the lookup sources before any parallel resolution: the
	// state build resolves every observed address (plus putative other
	// sides) through IP2AS and the IXP directory, and the compiled
	// engines answer in a few flat array reads. Idempotent — sweeps
	// that reuse one Config across runs compile once.
	cfg.freeze()
	st := newRunState(&cfg, ev)
	st.fixpoint()
	st.auditFinish()
	r := st.result()
	if st.auditor != nil {
		r.Audit = st.auditor.report
	}
	r.ProbeSuggestions = st.suggestProbes()
	if cfg.DecodeStats != nil {
		r.Diag.Decode = *cfg.DecodeStats
	}
	if cfg.SpillStats != nil {
		r.Diag.Spill = *cfg.SpillStats
	}
	return r, nil
}

// fixpoint runs the §4.4–§4.6 add/remove loop to the repeated-state
// stopping rule, then the §4.8 stub heuristic. Separated from
// RunEvidence so the fixpoint benchmarks can time it without the state
// build.
func (st *runState) fixpoint() {
	cfg := st.cfg
	if st.seenSet == nil {
		st.seenSet = make(map[uint64]struct{}, cfg.maxIterations()+1)
	} else {
		clear(st.seenSet)
	}
	st.seenSet[st.stateHash()] = struct{}{}
	for iter := 1; iter <= cfg.maxIterations(); iter++ {
		st.diag.Iterations = iter
		st.resetInferredOnce()
		st.addStep(iter == 1)
		st.auditCheckpoint(auditStageAdd, iter)
		if iter == 1 {
			st.fireStage(StageAddConverged, 0)
		}
		if cfg.SinglePass {
			break
		}
		st.removeStep()
		st.auditCheckpoint(auditStageRemove, iter)
		st.fireStage(StageIteration, iter)
		h := st.stateHash()
		if _, repeated := st.seenSet[h]; repeated {
			break
		}
		st.seenSet[h] = struct{}{}
	}

	st.stubHeuristic()
	st.auditCheckpoint(auditStageFinal, 0)
	st.fireStage(StageStub, 0)
}

// StageSnapshot hands a stage hook lazy access to the run state at the
// moment the stage fired. Materialising a full Result used to happen
// unconditionally per stage — hooks that only record the stage name
// (or sample a few stages) paid a sorted rebuild of the whole
// inference list every iteration. Now nothing is built until Result is
// called, the build is memoised per fire, and consecutive fires
// between which the state did not move share one inference list.
//
// The snapshot is only valid during the hook invocation; Result's
// return value may be retained, but treat its Inferences slice as
// read-only — unchanged-state fires share it.
type StageSnapshot struct {
	st *runState
	r  *Result
}

// Result materialises the snapshot (memoised per fire).
func (s *StageSnapshot) Result() *Result {
	if s.r == nil {
		s.r = s.st.snapshotResult()
	}
	return s.r
}

// snapshotResult builds a stage-hook Result, reusing the previous
// snapshot's inference list when the state fingerprint and the severed
// pairs (which the fingerprint does not cover but the output does, via
// other-side gating; pairs are only ever added, so their count tells)
// are both unchanged. Diagnostics are copied fresh either way —
// counters move even when the inference state does not.
func (st *runState) snapshotResult() *Result {
	if st.snapInf != nil && st.snapHash == st.hashSum && st.snapSevered == st.diag.DivergentOtherSides {
		return &Result{Inferences: st.snapInf, Diag: st.diag}
	}
	r := st.result()
	st.snapInf = r.Inferences
	st.snapHash = st.hashSum
	st.snapSevered = st.diag.DivergentOtherSides
	return r
}

// fireStage invokes the configured snapshot hook.
func (st *runState) fireStage(stage Stage, iteration int) {
	if st.cfg.OnStage == nil {
		return
	}
	st.cfg.OnStage(stage, iteration, &StageSnapshot{st: st})
}
