package mapit

import (
	"mapit/internal/as2org"
	"mapit/internal/audit"
	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/ixp"
	"mapit/internal/relation"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

// Core value types, aliased from the internal packages so they can be
// used by importers of this package.
type (
	// Addr is an IPv4 address.
	Addr = inet.Addr
	// ASN is an autonomous system number.
	ASN = inet.ASN
	// Prefix is an IPv4 CIDR prefix.
	Prefix = inet.Prefix

	// Hop is one reply within a trace.
	Hop = trace.Hop
	// Trace is one traceroute.
	Trace = trace.Trace
	// Dataset is a traceroute collection.
	Dataset = trace.Dataset
	// Sanitized is a dataset after §4.1 sanitisation.
	Sanitized = trace.Sanitized

	// OriginTable is a longest-prefix-match BGP origin table.
	OriginTable = bgp.Table
	// Announcement is one collector's view of one prefix.
	Announcement = bgp.Announcement

	// Orgs is the sibling (AS-to-organisation) dataset.
	Orgs = as2org.Orgs
	// Relationships is the AS relationship dataset.
	Relationships = relation.Dataset
	// IXPDirectory is the exchange-point prefix/ASN directory.
	IXPDirectory = ixp.Directory

	// Config carries the inputs and knobs of a run.
	Config = core.Config
	// Result is the output of a run.
	Result = core.Result
	// Inference is one inferred inter-AS link interface.
	Inference = core.Inference
	// Diagnostics carries run statistics.
	Diagnostics = core.Diagnostics
	// Direction selects an interface half.
	Direction = core.Direction
	// ASLink is an aggregated AS-pair link.
	ASLink = core.ASLink
	// Stage identifies an algorithm snapshot point.
	Stage = core.Stage
	// StageSnapshot is the lazy snapshot handed to Config.OnStage.
	StageSnapshot = core.StageSnapshot

	// AuditChecker configures the runtime invariant auditor (set it as
	// Config.Audit to cross-check the fixpoint's maintained state
	// against first principles at every fixpoint step boundary).
	AuditChecker = audit.Checker
	// AuditMode selects how much of each structure the auditor samples.
	AuditMode = audit.Mode
	// AuditReport is the structured audit outcome (Result.Audit).
	AuditReport = audit.Report
	// AuditViolation is one failed invariant check.
	AuditViolation = audit.Violation
)

// Direction values.
const (
	Forward  = core.Forward
	Backward = core.Backward
)

// Stage values, in firing order (see Config.OnStage).
const (
	StageDirect       = core.StageDirect
	StageP2P          = core.StageP2P
	StageInverse      = core.StageInverse
	StageAddConverged = core.StageAddConverged
	StageIteration    = core.StageIteration
	StageStub         = core.StageStub
)

// Audit modes.
const (
	AuditOff        = audit.Off
	AuditSampled    = audit.Sampled
	AuditExhaustive = audit.Exhaustive
)

// ParseAuditMode parses "off", "sampled", or "exhaustive".
func ParseAuditMode(s string) (AuditMode, error) { return audit.ParseMode(s) }

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return inet.ParseAddr(s) }

// ParsePrefix parses CIDR notation.
func ParsePrefix(s string) (Prefix, error) { return inet.ParsePrefix(s) }

// ParseASN parses "64500" or "AS64500".
func ParseASN(s string) (ASN, error) { return inet.ParseASN(s) }

// Infer runs MAP-IT over a raw trace dataset: it streams the traces
// through the parallel collector, which sanitises them (§4.1) across
// cfg.Workers and distils the evidence, and executes the multipass
// algorithm (§4.2–§4.8) — the same ingest path as the CLI.
func Infer(ds *Dataset, cfg Config) (*Result, error) {
	c := core.NewParallelCollector(cfg.Workers)
	for _, t := range ds.Traces {
		c.Add(t)
	}
	return core.RunEvidence(c.Evidence(), cfg)
}

// Streaming ingestion: month-scale corpora (the paper processes 733M
// traces) cannot be memory-resident, but their *evidence* — unique
// adjacencies and observed addresses — can. Feed traces to a Collector
// one at a time and run MAP-IT over the collected Evidence.
type (
	// Collector accumulates evidence incrementally without retaining
	// traces, on one goroutine and in memory.
	Collector = core.Collector
	// ParallelCollector is a Collector that sanitises and deduplicates
	// on worker goroutines, each keeping sorted runs that finalisation
	// merges, with byte-identical output.
	ParallelCollector = core.ParallelCollector
	// Evidence is the distilled algorithm input.
	Evidence = core.Evidence
	// SpillConfig bounds collector memory for out-of-core ingest:
	// evidence over the budget spills to sorted columnar segment files
	// and finalisation runs a bounded-memory external merge. The zero
	// value keeps everything in memory.
	SpillConfig = core.SpillConfig
	// SpillStats counts out-of-core ingest activity (segment files,
	// spilled runs/entries/bytes, external merges).
	SpillStats = core.SpillStats
)

// NewCollector returns an empty streaming collector.
func NewCollector() *Collector { return core.NewCollector() }

// NewParallelCollector returns an empty streaming collector with the
// given number of sanitise workers; workers < 1 means
// runtime.GOMAXPROCS(0).
func NewParallelCollector(workers int) *ParallelCollector {
	return core.NewParallelCollector(workers)
}

// NewParallelCollectorSpill is NewParallelCollector with an out-of-core
// spill budget: evidence past cfg's memory budget spills to disk, with
// output byte-identical to the in-memory collector. Call Finish (not
// Evidence) to observe spill I/O errors, and Close to remove the
// segment files.
func NewParallelCollectorSpill(workers int, cfg SpillConfig) *ParallelCollector {
	return core.NewParallelCollectorSpill(workers, cfg)
}

// InferEvidence runs MAP-IT over collected evidence.
func InferEvidence(ev *Evidence, cfg Config) (*Result, error) {
	return core.RunEvidence(ev, cfg)
}

// Serving: repeated queries against a finished (or converging) run go
// through a compiled snapshot — an immutable columnar view with
// zero-allocation concurrent address, AS-pair and monitor lookups.
type (
	// Snapshot is the compiled read-optimised view of a Result.
	Snapshot = snapshot.Snapshot
	// SnapshotRows is a zero-copy run of records sharing an address.
	SnapshotRows = snapshot.Rows
	// SnapshotLink is a zero-copy view of one AS pair's interfaces.
	SnapshotLink = snapshot.Link
	// SnapshotMonitor is a zero-copy view of one monitor's evidence.
	SnapshotMonitor = snapshot.Monitor
	// SnapshotHandle is an atomic copy-on-write publication point.
	SnapshotHandle = snapshot.Handle
	// MonitorEvidence is one monitor's contribution to the evidence
	// (collected only when the collector had TrackMonitors enabled).
	MonitorEvidence = core.MonitorEvidence
)

// BuildSnapshot compiles a result (and optionally its evidence, for the
// monitor index; ev may be nil) into an immutable query snapshot.
func BuildSnapshot(res *Result, ev *Evidence) *Snapshot { return snapshot.Build(res, ev) }

// NewOriginTable elects per-prefix origins from multi-collector
// announcements and builds the LPM table.
func NewOriginTable(anns []Announcement) *OriginTable { return bgp.NewTable(anns) }

// EmptyOriginTable returns a table to fill via Add (e.g. a Team Cymru
// style fallback).
func EmptyOriginTable() *OriginTable { return bgp.EmptyTable() }

// OriginChain chains origin tables; the first table that resolves an
// address wins (the paper chains collectors ahead of Team Cymru).
type OriginChain = bgp.Chain
