package core

import (
	"fmt"
	"strings"

	"mapit/internal/trace"
)

// FixpointTrajectory runs MAP-IT over s under cfg as Run does and
// renders the §4.6 fingerprint at every fixpoint step boundary (after
// each add step, each remove step and the §4.8 stub heuristic),
// followed by the run's diagnostics. It fails if the maintained
// fingerprint ever differs from a from-scratch recompute.
func FixpointTrajectory(s *trace.Sanitized, cfg Config) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	cfg.freeze()
	st := newRunState(&cfg, EvidenceFrom(s))
	var b strings.Builder
	var err error
	st.stepHook = func(stage string, iter int) {
		got, want := st.stateHash(), st.stateHashRecompute()
		if got != want && err == nil {
			err = fmt.Errorf("%s %d: maintained fingerprint %#x, recomputed %#x", stage, iter, got, want)
		}
		fmt.Fprintf(&b, "%s %d %#016x\n", stage, iter, got)
	}
	st.fixpoint()
	fmt.Fprintf(&b, "diag %+v\n", st.result().Diag)
	return b.String(), err
}
