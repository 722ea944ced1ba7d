// Package meta is the metamorphic and differential verification harness
// (DESIGN.md §10). It drives full MAP-IT pipelines over seeded synthetic
// worlds and asserts two kinds of oracle-free correctness evidence:
//
//   - metamorphic properties: input transformations under which the
//     inference output is provably invariant (trace-order permutation,
//     monitor relabeling, duplicate ingestion, order-preserving ASN
//     renumbering) or related by a known containment (trace subsetting);
//
//   - differential oracles: independent implementations of the same
//     pipeline stage (serial vs parallel ingest, out-of-core spilling
//     vs in-memory collection, serial vs sharded fixpoint scans, trie
//     vs compiled LPM, binary format round-trips, sliding-window
//     streaming vs from-scratch batch runs) whose Results must be
//     byte-identical.
//
// The harness complements the runtime invariant auditor (package audit,
// wired through core.Config.Audit): the auditor cross-checks internal
// machinery while a run executes; this package cross-checks whole runs
// against each other.
package meta

import (
	"fmt"

	"mapit/internal/audit"
	"mapit/internal/core"
	"mapit/internal/eval"
)

// Profile selects a world family for the seed matrix. The three
// profiles stress different code paths: Clean exercises the pure
// algorithm with every artifact knob zeroed, ArtifactHeavy saturates
// the §4.1 sanitisation and §4.4 resolution machinery, and IXPDense
// routes a large share of inter-AS links through exchange fabrics
// (§4.4.2 fn7 handling).
type Profile string

const (
	Clean         Profile = "clean"
	ArtifactHeavy Profile = "artifact"
	IXPDense      Profile = "ixp"
)

// Profiles lists every profile in matrix order.
var Profiles = []Profile{Clean, ArtifactHeavy, IXPDense}

// EnvConfig builds the eval environment configuration for a profile and
// seed. Worlds are small enough that a full pipeline runs in tens of
// milliseconds, so matrices of them stay cheap under -race.
func (p Profile) EnvConfig(seed int64) eval.EnvConfig {
	c := eval.SmallEnvConfig()
	c.Workers = 4
	c.Gen.Seed = seed
	c.Trace.Seed = seed + 1000
	c.Meta.Seed = seed + 2000
	c.Trace.DestsPerMonitor = 250
	switch p {
	case Clean:
		c.Gen.UnresponsiveRouterProb = 0
		c.Gen.BuggyRouterProb = 0
		c.Gen.SilentBorderASFrac = 0
		c.Gen.NATStubFrac = 0
		c.Gen.UnannouncedASFrac = 0
		c.Gen.MOASFrac = 0
		c.Trace.PerPacketLBProb = 0
		c.Trace.RouteChangeProb = 0
		c.Trace.ThirdPartyProb = 0
		c.Meta.MissingSiblingFrac = 0
		c.Meta.MissingRelFrac = 0
		c.Meta.MissingIXPPrefixFrac = 0
	case ArtifactHeavy:
		c.Gen.UnresponsiveRouterProb = 0.06
		c.Gen.BuggyRouterProb = 0.04
		c.Gen.SilentBorderASFrac = 0.08
		c.Gen.NATStubFrac = 0.25
		c.Gen.MOASFrac = 0.08
		c.Trace.PerPacketLBProb = 0.05
		c.Trace.RouteChangeProb = 0.04
		c.Trace.ThirdPartyProb = 0.015
		c.Meta.MissingSiblingFrac = 0.3
		c.Meta.MissingRelFrac = 0.15
		c.Meta.MissingIXPPrefixFrac = 0.25
	case IXPDense:
		c.Gen.IXPs = 5
		c.Gen.IXPPeeringFrac = 0.85
	}
	return c
}

// Pipeline is one fully prepared world plus the run parameters every
// driver in this package shares. Baseline results are memoised so a
// test exercising several properties over one world runs the reference
// inference once.
type Pipeline struct {
	Seed    int64
	Profile Profile
	Env     *eval.Env
	F       float64

	baseline *core.Result
}

// NewPipeline generates the world for (profile, seed).
func NewPipeline(p Profile, seed int64) *Pipeline {
	return &Pipeline{
		Seed:    seed,
		Profile: p,
		Env:     eval.NewEnv(p.EnvConfig(seed)),
		F:       0.5,
	}
}

// Name labels the pipeline in test output.
func (pl *Pipeline) Name() string {
	return fmt.Sprintf("%s/seed=%d", pl.Profile, pl.Seed)
}

// Config returns the core configuration for this pipeline's runs.
func (pl *Pipeline) Config() core.Config {
	return pl.Env.Config(pl.F)
}

// Run executes MAP-IT over the pipeline's sanitised dataset.
func (pl *Pipeline) Run() (*core.Result, error) {
	return core.Run(pl.Env.Sanitized, pl.Config())
}

// RunAudited executes the pipeline under the runtime invariant auditor.
func (pl *Pipeline) RunAudited(mode audit.Mode) (*core.Result, error) {
	cfg := pl.Config()
	cfg.Audit = &audit.Checker{Mode: mode}
	return core.Run(pl.Env.Sanitized, cfg)
}

// Baseline returns the memoised reference result.
func (pl *Pipeline) Baseline() (*core.Result, error) {
	if pl.baseline != nil {
		return pl.baseline, nil
	}
	r, err := pl.Run()
	if err != nil {
		return nil, err
	}
	pl.baseline = r
	return r, nil
}
