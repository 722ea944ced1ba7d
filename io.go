package mapit

import (
	"io"
	"os"

	"mapit/internal/as2org"
	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/ixp"
	"mapit/internal/relation"
	"mapit/internal/trace"
)

// ReadTraces reads a whole trace dataset, sniffing its format from the
// first bytes: text ("monitor|dst|hop hop ...", hops are dotted quads,
// "*", or "addr!q<ttl>" for anomalous quoted TTLs), JSONL, or binary
// MTRC v2/v3/v4. It decodes strictly through DecodeTraces, the
// streaming loop under the window paths; callers that stream, or that
// want permissive decoding, call DecodeTraces directly.
func ReadTraces(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	if _, err := core.DecodeTraces(r, DecodeOptions{}, func(t Trace) error {
		ds.Traces = append(ds.Traces, t)
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadTracesFile is ReadTraces over a file path.
func ReadTracesFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTraces(f)
}

// WriteTraces emits a dataset in the text format.
func WriteTraces(w io.Writer, ds *Dataset) error { return trace.Write(w, ds) }

// WriteTracesJSON emits a dataset as JSONL.
func WriteTracesJSON(w io.Writer, ds *Dataset) error { return trace.WriteJSON(w, ds) }

// Corrupt-input handling: the binary decoders validate every length
// field, count, and interned index they read, and report failures as
// *CorruptError with byte-offset context. Permissive decoding
// additionally survives corrupt v3/v4 blocks by skipping them.
type (
	// CorruptError is a structured binary decode failure (byte offset,
	// block index, record kind, failure class).
	CorruptError = trace.CorruptError
	// DecodeStats aggregates decode-health counters across one ingest.
	DecodeStats = trace.DecodeStats
	// DecodeOptions selects strict (zero value) or permissive decoding
	// and optionally collects DecodeStats.
	DecodeOptions = trace.DecodeOptions
)

// WriteTracesBinary emits the compact binary trace format (~5 bytes per
// hop with interned monitor names — the right choice for month-scale
// corpora).
func WriteTracesBinary(w io.Writer, ds *Dataset) error { return trace.WriteBinary(w, ds) }

// WriteTracesBinaryBlocks emits the block-framed binary trace format
// (v3): every tracesPerBlock traces form an independently decodable
// block, so permissive decoding loses only the corrupt block.
// tracesPerBlock <= 0 selects the default block size.
func WriteTracesBinaryBlocks(w io.Writer, ds *Dataset, tracesPerBlock int) error {
	return trace.WriteBinaryBlocks(w, ds, tracesPerBlock)
}

// WriteTracesBinaryBlocksV4 emits the timestamped block-framed binary
// format (v4): v3 framing plus a delta-compressed per-block timestamp
// column. Traces must be in non-decreasing Time order. tracesPerBlock
// <= 0 selects the default block size.
func WriteTracesBinaryBlocksV4(w io.Writer, ds *Dataset, tracesPerBlock int) error {
	return trace.WriteBinaryBlocksV4(w, ds, tracesPerBlock)
}

// ReadRIB parses RIB dumps ("collector|prefix|as-path" lines) and builds
// the merged origin table.
func ReadRIB(r io.Reader) (*OriginTable, error) {
	anns, err := bgp.ParseRIB(r)
	if err != nil {
		return nil, err
	}
	return bgp.NewTable(anns), nil
}

// ReadRIBFile is ReadRIB over a file path.
func ReadRIBFile(path string) (*OriginTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRIB(f)
}

// ReadOrgs parses a sibling dataset ("as|<asn>|<org>" and
// "sibling|<asn>|<asn>" lines).
func ReadOrgs(r io.Reader) (*Orgs, error) { return as2org.Parse(r) }

// ReadOrgsFile is ReadOrgs over a file path.
func ReadOrgsFile(path string) (*Orgs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return as2org.Parse(f)
}

// ReadRelationships parses a CAIDA serial-1 relationship file
// ("provider|customer|-1", "peer|peer|0").
func ReadRelationships(r io.Reader) (*Relationships, error) { return relation.Parse(r) }

// ReadRelationshipsFile is ReadRelationships over a file path.
func ReadRelationshipsFile(path string) (*Relationships, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.Parse(f)
}

// ReadIXP parses an IXP directory ("prefix|<cidr>|<name>",
// "asn|<asn>|<name>").
func ReadIXP(r io.Reader) (*IXPDirectory, error) { return ixp.Parse(r) }

// ReadIXPFile is ReadIXP over a file path.
func ReadIXPFile(path string) (*IXPDirectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ixp.Parse(f)
}
