package core

import (
	"cmp"
	"slices"

	"mapit/internal/audit"
	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Inference is one inferred inter-AS link interface.
type Inference struct {
	// Addr is the interface address the inference was made on.
	Addr inet.Addr
	// Dir is the half that carried the evidence (forward: the AS switch
	// shows in N_F; backward: in N_B).
	Dir Direction
	// Local is the IP2AS mapping of the half at the moment the
	// inference was made — one endpoint AS of the link. Zero when the
	// address was unannounced.
	Local inet.ASN
	// Connected is the AS on the other end of the link (the plurality
	// AS of the neighbour set, or the stub AS for §4.8 inferences).
	Connected inet.ASN
	// OtherSide is the putative address of the far interface on the
	// same /30 or /31 link (§4.2).
	OtherSide inet.Addr
	// Uncertain marks inferences the §4.4.4 inverse resolution could
	// not adjudicate; they are reported separately from the high
	// confidence list.
	Uncertain bool
	// Stub marks inferences produced by the §4.8 stub heuristic.
	Stub bool
	// Indirect marks records derived purely from the other side of a
	// direct inference (§4.4.2): the far interface of an inferred link.
	Indirect bool
}

// Link reports the unordered AS pair the inference claims the interface
// connects.
func (inf Inference) Link() (a, b inet.ASN) {
	if inf.Local <= inf.Connected {
		return inf.Local, inf.Connected
	}
	return inf.Connected, inf.Local
}

// Diagnostics aggregates the run statistics the paper reports alongside
// its results.
type Diagnostics struct {
	// Iterations is the number of outer add/remove iterations executed
	// before the state repeated (3 in the paper's experiments, §4.6).
	Iterations int
	// AddPasses is the total number of direct-inference passes.
	AddPasses int
	// RemovePasses is the total number of §4.5 remove-step passes.
	RemovePasses int
	// Interfaces counts interface addresses that appeared adjacent to
	// at least one other address.
	Interfaces int
	// EligibleForward / EligibleBackward count halves with |N| ≥ 2,
	// the precondition for a direct inference (§4.3).
	EligibleForward, EligibleBackward int
	// BothNsOverlap counts interfaces with some address in both N_F and
	// N_B (0.3% of interfaces in the paper, §3.2 fn3).
	BothNsOverlap int
	// Slash31Fraction is the share of addresses the §4.2 heuristic
	// deems /31-numbered (40.4% in the paper).
	Slash31Fraction float64
	// DualResolved counts §4.4.3 dual inferences resolved by dropping
	// the backward half.
	DualResolved int
	// DualSameAS counts dual inferences retained because both
	// directions involve the same organisation.
	DualSameAS int
	// DivergentOtherSides counts §4.4.3 divergent-other-side pairs (90
	// in the paper's final results).
	DivergentOtherSides int
	// InverseDiscarded counts backward inferences dropped by §4.4.4.
	InverseDiscarded int
	// UncertainPairs counts inference pairs demoted to uncertain.
	UncertainPairs int
	// Demoted counts direct inferences demoted during remove steps.
	Demoted int
	// StubInferences counts §4.8 inferences.
	StubInferences int
	// Decode carries the ingest decode-health counters (corrupt blocks
	// skipped, traces dropped, errors by class) when the run was fed
	// from a binary corpus with Config.DecodeStats set; zero otherwise.
	Decode trace.DecodeStats
	// Spill carries the out-of-core ingest counters (segment files,
	// spilled runs and bytes, external merges) when the run was fed
	// from a spilling collector with Config.SpillStats set; zero
	// otherwise.
	Spill SpillStats
	// AuditViolations counts invariant violations the runtime auditor
	// detected, including ones past the report's retention cap; zero
	// when auditing was off or every check passed. The full structured
	// report is Result.Audit. Kept as a counter so Diagnostics stays
	// comparable with ==.
	AuditViolations int
	// Window carries the sliding-window engine's lifetime and churn
	// counters when the run came from a Window.Advance; zero for batch
	// runs. Plain values, so Diagnostics stays comparable.
	Window WindowStats
}

// Result is the output of a MAP-IT run.
type Result struct {
	// Inferences holds every inferred inter-AS link interface, sorted
	// by (address, direction). Direct inferences come with Uncertain
	// and Stub flags; records with Indirect=true are the far sides of
	// direct inferences.
	Inferences []Inference
	// ProbeSuggestions lists suspected boundaries starved of evidence —
	// the targets for the §5.4 remedy of collecting additional traces.
	ProbeSuggestions []ProbeSuggestion
	// Diag carries run statistics.
	Diag Diagnostics
	// Audit is the runtime invariant auditor's report; nil unless
	// Config.Audit enabled auditing for the run.
	Audit *audit.Report
	// Partition is always nil.
	//
	// Deprecated: the component-partitioned fixpoint was removed (one
	// connected component holds most addresses of traceroute evidence,
	// so the split never paid; DESIGN.md §12). The field survives only
	// because the end-to-end benchmark in bench/ still reads it; it goes
	// when the benchmark drops its partition metrics.
	Partition *PartitionInfo
}

// PartitionInfo is the record the removed partitioned fixpoint attached
// to Result.Partition.
//
// Deprecated: never produced; kept only so existing readers of
// Result.Partition still compile.
type PartitionInfo struct {
	Components int
	GiantShare float64
	Replays    int
}

// HighConfidence returns the non-uncertain direct inferences — the
// paper's headline output list. The slice is sized by a counted pass, so
// the call costs exactly one allocation; callers that query repeatedly
// should compile the result into a snapshot (internal/snapshot), whose
// prebuilt HighConfidence view costs none.
func (r *Result) HighConfidence() []Inference {
	return filterInferences(r.Inferences, func(inf *Inference) bool {
		return !inf.Indirect && !inf.Uncertain
	})
}

// Uncertain returns the uncertain direct inferences (the "much smaller
// list", §4.4.4).
func (r *Result) Uncertain() []Inference {
	return filterInferences(r.Inferences, func(inf *Inference) bool {
		return !inf.Indirect && inf.Uncertain
	})
}

// filterInferences copies the records keep selects into a slice sized by
// a counted first pass — one exact allocation instead of append-doubling
// through the whole list.
func filterInferences(infs []Inference, keep func(*Inference) bool) []Inference {
	n := 0
	for i := range infs {
		if keep(&infs[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Inference, 0, n)
	for i := range infs {
		if keep(&infs[i]) {
			out = append(out, infs[i])
		}
	}
	return out
}

// ByAddr returns all inference records for an address.
func (r *Result) ByAddr(a inet.Addr) []Inference {
	var out []Inference
	for _, inf := range r.Inferences {
		if inf.Addr == a {
			out = append(out, inf)
		}
	}
	return out
}

// ASLink is an inferred link between two organisations with the
// interface addresses that evidence it.
type ASLink struct {
	A, B  inet.ASN // A <= B
	Addrs []inet.Addr
}

// Links aggregates the high confidence inferences into distinct AS-pair
// links. Inferences with an unknown (zero) endpoint are skipped.
func (r *Result) Links() []ASLink {
	type key struct{ a, b inet.ASN }
	agg := make(map[key][]inet.Addr)
	for _, inf := range r.Inferences {
		if inf.Indirect || inf.Uncertain || inf.Local.IsZero() || inf.Connected.IsZero() {
			continue
		}
		a, b := inf.Link()
		agg[key{a, b}] = append(agg[key{a, b}], inf.Addr)
	}
	out := make([]ASLink, 0, len(agg))
	for k, addrs := range agg {
		slices.Sort(addrs)
		out = append(out, ASLink{A: k.a, B: k.b, Addrs: addrs})
	}
	slices.SortFunc(out, func(x, y ASLink) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return out
}
