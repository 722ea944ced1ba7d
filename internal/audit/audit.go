// Package audit defines the runtime invariant auditor's contract: the
// Checker a caller plugs into core.Config.Audit, the structured
// Violation records the engine emits when an invariant fails, and the
// Report that travels with the run result.
//
// The auditor cross-checks the fixpoint's maintained state against
// first principles at every step boundary — the maintained state
// fingerprint against a from-scratch recomputation, memoised IP→AS
// resolutions against fresh ones, the dense intern index and flat
// mirrors against the authoritative maps, and the add/remove fixpoints
// against a full re-election. The checks themselves live in internal/core
// (they need the run state); this package is dependency-free so the
// core, the command, and the test harness can all share the types.
package audit

import (
	"fmt"
	"sort"
	"strings"
)

// Mode selects how much of the state each audit checkpoint examines.
type Mode uint8

const (
	// Off disables auditing entirely; the engine pays nothing.
	Off Mode = iota
	// Sampled checks a deterministic stride of each indexed structure
	// per checkpoint (rotating the offset so repeated checkpoints cover
	// different residues) plus every O(state) cheap invariant. Suitable
	// for always-on use.
	Sampled
	// Exhaustive checks everything at every checkpoint: every eligible
	// half is re-elected from scratch, every memo entry re-resolved.
	// Each checkpoint costs about one add pass.
	Exhaustive
)

// ParseMode parses the -audit flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "sampled":
		return Sampled, nil
	case "exhaustive":
		return Exhaustive, nil
	}
	return Off, fmt.Errorf("audit: unknown mode %q (want off, sampled or exhaustive)", s)
}

// String names the mode as ParseMode reads it.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Sampled:
		return "sampled"
	case Exhaustive:
		return "exhaustive"
	}
	return fmt.Sprintf("audit.Mode(%d)", uint8(m))
}

// Checker configures the runtime invariant auditor. The zero value is
// disabled; a nil *Checker is also disabled, so core.Config.Audit can
// simply be left unset.
type Checker struct {
	// Mode selects the audit depth.
	Mode Mode
	// SampleStride is the stride Sampled mode walks indexed structures
	// with. Zero means DefaultSampleStride. Exhaustive mode ignores it.
	SampleStride int
	// MaxViolations caps how many violations a report retains (the rest
	// are counted in Report.Dropped). Zero means DefaultMaxViolations.
	MaxViolations int
}

// DefaultSampleStride is the Sampled-mode stride when
// Checker.SampleStride is zero: 1 in every 16 entries per checkpoint.
const DefaultSampleStride = 16

// DefaultMaxViolations is the retained-violation cap when
// Checker.MaxViolations is zero.
const DefaultMaxViolations = 100

// Enabled reports whether the checker asks for any auditing at all.
func (c *Checker) Enabled() bool { return c != nil && c.Mode != Off }

// Stride returns the effective sampling stride: 1 for Exhaustive mode,
// the configured (or default) stride for Sampled.
func (c *Checker) Stride() int {
	if c.Mode == Exhaustive {
		return 1
	}
	if c.SampleStride > 0 {
		return c.SampleStride
	}
	return DefaultSampleStride
}

// Cap returns the effective retained-violation cap.
func (c *Checker) Cap() int {
	if c.MaxViolations > 0 {
		return c.MaxViolations
	}
	return DefaultMaxViolations
}

// Violation is one failed invariant check.
type Violation struct {
	// Check names the invariant (e.g. "state-hash", "election-memo",
	// "retention"); DESIGN.md §10 catalogues them.
	Check string
	// Stage is the fixpoint boundary the checkpoint ran at:
	// "add-step", "remove-step" or "final".
	Stage string
	// Iteration is the outer add/remove iteration (0 for "final").
	Iteration int
	// Detail describes the specific divergence.
	Detail string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("%s@%s[%d]: %s", v.Check, v.Stage, v.Iteration, v.Detail)
}

// Report accumulates the outcome of a run's audit checkpoints.
type Report struct {
	// Mode echoes the checker mode the run used.
	Mode Mode
	// Steps counts audit checkpoints executed.
	Steps int
	// Checks counts individual invariant assertions evaluated.
	Checks int
	// Violations holds the retained failures, sorted by (Stage,
	// Iteration, Check, Detail) once the run finalises the report.
	Violations []Violation
	// Dropped counts violations discarded past the retention cap.
	Dropped int
}

// NewReport returns an empty report for a run under mode.
func NewReport(mode Mode) *Report { return &Report{Mode: mode} }

// Record appends a violation, honouring the retention cap limit.
func (r *Report) Record(v Violation, limit int) {
	if len(r.Violations) >= limit {
		r.Dropped++
		return
	}
	r.Violations = append(r.Violations, v)
}

// Total is the number of violations detected, including dropped ones.
func (r *Report) Total() int { return len(r.Violations) + r.Dropped }

// Ok reports whether every evaluated check passed.
func (r *Report) Ok() bool { return r.Total() == 0 }

// Sort orders the retained violations deterministically. Map-walk
// checks discover violations in nondeterministic order; sorting keeps
// failing runs diffable.
func (r *Report) Sort() {
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Detail < b.Detail
	})
}

// String summarises the report in one line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit %s: %d checkpoints, %d checks", r.Mode, r.Steps, r.Checks)
	if r.Ok() {
		b.WriteString(", ok")
	} else {
		fmt.Fprintf(&b, ", %d violations", r.Total())
	}
	return b.String()
}
