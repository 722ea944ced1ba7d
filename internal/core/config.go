package core

import (
	"errors"

	"mapit/internal/as2org"
	"mapit/internal/audit"
	"mapit/internal/inet"
	"mapit/internal/ixp"
	"mapit/internal/relation"
	"mapit/internal/trace"
)

// IP2AS resolves an address to its BGP origin AS via longest prefix
// match. bgp.Table and bgp.Chain implement it.
type IP2AS interface {
	Lookup(inet.Addr) (inet.ASN, bool)
}

// Stage identifies a point in the algorithm at which a snapshot hook can
// fire; the §5.5 per-stage evaluation (Fig 7) is built on these.
type Stage string

// Stages, in firing order.
const (
	// StageDirect fires after the very first direct-inference pass
	// (plus its other-side updates) of the first add step.
	StageDirect Stage = "direct"
	// StageP2P fires after the first point-to-point contradiction fix.
	StageP2P Stage = "p2p"
	// StageInverse fires after the first inverse-inference resolution.
	StageInverse Stage = "inverse"
	// StageAddConverged fires when the first add step reaches fixpoint.
	StageAddConverged Stage = "add-converged"
	// StageIteration fires after each remove step (end of iteration n);
	// the hook receives "iteration" with the iteration number in n.
	StageIteration Stage = "iteration"
	// StageStub fires after the stub heuristic.
	StageStub Stage = "stub"
)

// Config carries the inputs and knobs of a MAP-IT run.
type Config struct {
	// IP2AS is the BGP-derived origin mapping (required). The paper
	// merges 40 collectors and chains a Team Cymru fallback; any
	// longest-prefix-match source works.
	IP2AS IP2AS

	// Orgs merges sibling ASes (§4.9). Optional; nil means every AS is
	// its own organisation.
	Orgs *as2org.Orgs

	// Rels is the AS relationship dataset; required only for the stub
	// heuristic (§4.8), which is skipped when nil.
	Rels *relation.Dataset

	// IXP flags exchange-point address space (§4.4.2 fn7, §4.9).
	// Optional.
	IXP *ixp.Directory

	// F is the §4.4.1 evidence threshold: the plurality AS must account
	// for at least F×|N| of a neighbour set. The paper sweeps 0..1 and
	// settles on 0.5 (§5.3).
	F float64

	// MaxIterations bounds the outer add/remove loop as a safety net on
	// top of repeated-state detection (§4.6). Zero means the default.
	MaxIterations int

	// Workers fans the state build (IP→AS resolution, §4.2 other
	// sides) and the read-only election scans of every add and remove
	// pass out over this many goroutines; ingest callers (mapit.Infer,
	// cmd/mapit) reuse the count for sanitisation and collection. The
	// add/remove loop itself is one sequential fixpoint (DESIGN.md §12).
	// Results are byte-identical for any value: updates are
	// double-buffered (§4.4.5) and per-shard outputs merge in a fixed
	// order. Zero or one means serial.
	Workers int

	// DisableStubHeuristic turns off §4.8 even when Rels is present.
	DisableStubHeuristic bool

	// DisableRemoveStep turns off §4.5 (ablation only).
	DisableRemoveStep bool

	// DisableInverseResolution turns off §4.4.4 (ablation only).
	DisableInverseResolution bool

	// DisableDualResolution turns off the §4.4.3 dual-inference fix
	// (ablation only).
	DisableDualResolution bool

	// SinglePass stops after the first direct-inference pass without
	// refinement (ablation: what a one-shot heuristic would get).
	SinglePass bool

	// WholeInterfaceUpdates applies IP2AS updates to both halves of an
	// interface instead of only the inferred half (ablation: the paper
	// argues per-half updates are required; see the 199.109.5.1
	// discussion in §4.4.1).
	WholeInterfaceUpdates bool

	// OnStage, when set, is called at each Stage with a lazy snapshot:
	// nothing is materialised until StageSnapshot.Result is called, so
	// hooks that only count stages (or sample a few) cost almost
	// nothing. Iteration snapshots pass the iteration number.
	OnStage func(stage Stage, iteration int, s *StageSnapshot)

	// DecodeStats, when non-nil, is copied into Result.Diag.Decode
	// after the run, so the ingest decode-health counters a permissive
	// binary decode accumulated (see trace.DecodeOptions) travel with
	// the run diagnostics. The engine only reads through the pointer.
	DecodeStats *trace.DecodeStats

	// SpillStats, when non-nil, is copied into Result.Diag.Spill after
	// the run, so the out-of-core ingest counters of a spilling
	// collector (see SpillConfig) travel with the run diagnostics. The
	// engine only reads through the pointer.
	SpillStats *SpillStats

	// Audit, when enabled, runs the runtime invariant auditor at every
	// fixpoint step boundary: the maintained state (state fingerprint,
	// base mappings, intern index and committed-mapping view) is cross-checked
	// against first-principles recomputation, and each step's result
	// against a from-scratch election. Violations are collected into Result.Audit and
	// counted in Result.Diag.AuditViolations; a clean audited run is
	// byte-identical to an unaudited one. See DESIGN.md §10.
	Audit *audit.Checker
}

const defaultMaxIterations = 50

func (c *Config) maxIterations() int {
	if c.MaxIterations > 0 {
		return c.MaxIterations
	}
	return defaultMaxIterations
}

func (c *Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// validate checks the configuration.
func (c *Config) validate() error {
	if c.IP2AS == nil {
		return errors.New("core: Config.IP2AS is required")
	}
	if c.F < 0 || c.F > 1 {
		return errors.New("core: Config.F must be in [0,1]")
	}
	return nil
}
