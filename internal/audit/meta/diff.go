package meta

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"

	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Differential oracles: independent implementations of one pipeline
// stage fed identical input, whose downstream Results must be
// byte-identical. Each returns nil when the implementations agree.

// equalEvidence compares two evidence distillations field by field.
func equalEvidence(label string, a, b *core.Evidence) error {
	if len(a.AllAddrs) != len(b.AllAddrs) {
		return fmt.Errorf("%s: address universes diverge (%d vs %d)",
			label, len(a.AllAddrs), len(b.AllAddrs))
	}
	for addr := range a.AllAddrs {
		if !b.AllAddrs.Contains(addr) {
			return fmt.Errorf("%s: address %v missing from second evidence", label, addr)
		}
	}
	if !slices.Equal(a.Adjacencies, b.Adjacencies) {
		return fmt.Errorf("%s: adjacencies diverge (%d vs %d)",
			label, len(a.Adjacencies), len(b.Adjacencies))
	}
	return nil
}

// DiffIngest runs the three ingest paths — streaming serial collector,
// parallel collector, and serial batch sanitise-then-distil —
// over the same raw traces and requires identical evidence and
// identical downstream Results.
func DiffIngest(pl *Pipeline) error {
	d := pl.Env.Dataset

	serial := core.NewCollector()
	for _, tr := range d.Traces {
		serial.Add(tr)
	}
	evSerial := serial.Evidence()

	par := core.NewParallelCollector(8)
	for _, tr := range d.Traces {
		par.Add(tr)
	}
	evPar := par.Evidence()

	evBatch := core.EvidenceFrom(d.Sanitize())

	if err := equalEvidence("serial vs parallel collector", evSerial, evPar); err != nil {
		return err
	}
	if err := equalEvidence("collector vs batch sanitise", evSerial, evBatch); err != nil {
		return err
	}

	cfg := pl.Config()
	rs, err := core.RunEvidence(evSerial, cfg)
	if err != nil {
		return err
	}
	rp, err := core.RunEvidence(evPar, cfg)
	if err != nil {
		return err
	}
	rb, err := core.RunEvidence(evBatch, cfg)
	if err != nil {
		return err
	}
	if err := EqualResults(rs, rp); err != nil {
		return fmt.Errorf("serial vs parallel collector: %w", err)
	}
	if err := EqualResults(rs, rb); err != nil {
		return fmt.Errorf("collector vs batch sanitise: %w", err)
	}
	return nil
}

// DiffSpill runs the out-of-core ingest against the in-memory reference
// over the same raw traces: every (budget, run-granularity, workers)
// configuration — drawn from a seeded rng so the matrix wanders across
// runs of the harness — must reproduce the in-memory evidence exactly,
// and the downstream Results must be byte-identical. The most
// aggressive configuration is additionally required to have actually
// spilled, so the oracle cannot pass vacuously through the in-memory
// fast path. One row tracks monitors, whose attribution never spills
// but must still equal the in-memory reference's.
func DiffSpill(pl *Pipeline) error {
	d := pl.Env.Dataset

	mem := core.NewCollector()
	mem.TrackMonitors()
	for _, tr := range d.Traces {
		mem.Add(tr)
	}
	evMem := mem.Evidence()
	base, err := core.RunEvidence(evMem, pl.Config())
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "mapit-diffspill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(pl.Seed ^ 0x5b1ca7))
	configs := []struct {
		label     string
		spill     core.SpillConfig
		mustSpill bool
		monitors  bool
	}{
		{"budget=1B", core.SpillConfig{Dir: dir, MemBudget: 1}, true, false},
		{"random-run-entries", core.SpillConfig{Dir: dir, RunEntries: 1 + rng.Intn(64)}, true, false},
		{"random-budget", core.SpillConfig{Dir: dir, MemBudget: 1 << (10 + rng.Intn(11))}, false, false},
		{"budget=1B monitors", core.SpillConfig{Dir: dir, MemBudget: 1}, true, true},
	}
	workerCounts := []int{1, 2 + rng.Intn(6)}

	for _, tc := range configs {
		for _, workers := range workerCounts {
			label := fmt.Sprintf("spill %s workers=%d", tc.label, workers)
			c := core.NewParallelCollectorSpill(workers, tc.spill)
			if tc.monitors {
				c.TrackMonitors()
			}
			for _, tr := range d.Traces {
				c.Add(tr)
			}
			ev, err := c.Finish()
			if err != nil {
				c.Close()
				return fmt.Errorf("%s: %w", label, err)
			}
			if tc.mustSpill && c.SpillStats().SpilledEntries == 0 {
				c.Close()
				return fmt.Errorf("%s: configuration spilled nothing — oracle is vacuous", label)
			}
			if err := equalEvidence(label, evMem, ev); err != nil {
				c.Close()
				return err
			}
			if tc.monitors {
				if len(evMem.Monitors) == 0 {
					c.Close()
					return fmt.Errorf("%s: no monitor attribution — oracle is vacuous", label)
				}
				if err := equalMonitorEvidence(evMem.Monitors, ev.Monitors); err != nil {
					c.Close()
					return fmt.Errorf("%s: %w", label, err)
				}
			}
			r, err := core.RunEvidence(ev, pl.Config())
			if err != nil {
				c.Close()
				return err
			}
			if err := c.Close(); err != nil {
				return fmt.Errorf("%s: close: %w", label, err)
			}
			if err := EqualResults(base, r); err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
		}
	}
	return nil
}

// DiffWorkers runs the engine at Workers = 1, 2 and NumCPU and requires
// every Result to equal the pipeline baseline. Workers only shards the
// state build and the election scans; double-buffered updates and
// fixed-order shard merges must keep the output independent of it.
func DiffWorkers(pl *Pipeline) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		cfg := pl.Config()
		cfg.Workers = w
		r, err := core.Run(pl.Env.Sanitized, cfg)
		if err != nil {
			return err
		}
		if err := EqualResults(base, r); err != nil {
			return fmt.Errorf("workers=%d vs baseline: %w", w, err)
		}
	}
	return nil
}

// noFreeze hides the Freeze method of a bgp.Table so the engine cannot
// compile it: every lookup goes through the binary trie instead of the
// flat multibit form.
type noFreeze struct {
	t *bgp.Table
}

func (n noFreeze) Lookup(a inet.Addr) (inet.ASN, bool) { return n.t.Lookup(a) }

// DiffLPM answers every IP→AS resolution through the uncompiled binary
// trie and through the compiled multibit engine, and requires identical
// Results. Fresh tables are built from the world's announcements so the
// frozen Env table cannot leak into the trie arm.
func DiffLPM(pl *Pipeline) error {
	trie := bgp.NewTable(pl.Env.World.Announcements)
	compiled := bgp.NewTable(pl.Env.World.Announcements)
	compiled.Freeze()

	cfgTrie := pl.Config()
	cfgTrie.IP2AS = noFreeze{t: trie}
	cfgComp := pl.Config()
	cfgComp.IP2AS = compiled

	rt, err := core.Run(pl.Env.Sanitized, cfgTrie)
	if err != nil {
		return err
	}
	rc, err := core.Run(pl.Env.Sanitized, cfgComp)
	if err != nil {
		return err
	}
	if err := EqualResults(rt, rc); err != nil {
		return fmt.Errorf("trie vs compiled LPM: %w", err)
	}
	return nil
}

// DiffBinaryRoundTrip serialises the dataset through every binary
// layout — monolithic v2, blocked v3, and blocked v4 carrying nonzero
// timestamps — and reads each back twice: through the one-shot
// trace.ReadBinary and through core.DecodeTraces, the sniffing decode
// loop under the Ingestor and the window replay. Every decoded dataset
// must equal what was written, timestamps included, and drive a Result
// identical to the baseline.
func DiffBinaryRoundTrip(pl *Pipeline) error {
	d := pl.Env.Dataset
	base, err := pl.Baseline()
	if err != nil {
		return err
	}

	// v4 requires non-decreasing times; repeats exercise zero deltas.
	timed := &trace.Dataset{Traces: slices.Clone(d.Traces)}
	for i := range timed.Traces {
		timed.Traces[i].Time = 1_700_000_000 + int64(i/3)*17
	}
	encodings := []struct {
		label string
		want  *trace.Dataset
		write func(io.Writer, *trace.Dataset) error
	}{
		{"v2", d, trace.WriteBinary},
		{"v3", d, func(w io.Writer, d *trace.Dataset) error { return trace.WriteBinaryBlocks(w, d, 64) }},
		{"v4", timed, func(w io.Writer, d *trace.Dataset) error { return trace.WriteBinaryBlocksV4(w, d, 64) }},
	}
	for _, enc := range encodings {
		var buf bytes.Buffer
		if err := enc.write(&buf, enc.want); err != nil {
			return fmt.Errorf("write %s: %w", enc.label, err)
		}
		serial, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("read %s: %w", enc.label, err)
		}
		decoded := &trace.Dataset{}
		if _, err := core.DecodeTraces(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{}, func(t trace.Trace) error {
			decoded.Traces = append(decoded.Traces, t)
			return nil
		}); err != nil {
			return fmt.Errorf("decode %s: %w", enc.label, err)
		}

		for _, row := range []struct {
			label string
			ds    *trace.Dataset
		}{{enc.label + "/serial", serial}, {enc.label + "/decode", decoded}} {
			if !reflect.DeepEqual(row.ds.Traces, enc.want.Traces) {
				return fmt.Errorf("%s: decoded dataset diverges from original (%d vs %d traces)",
					row.label, len(row.ds.Traces), len(enc.want.Traces))
			}
			r, err := core.Run(row.ds.Sanitize(), pl.Config())
			if err != nil {
				return err
			}
			if err := EqualResults(base, r); err != nil {
				return fmt.Errorf("%s: %w", row.label, err)
			}
		}
	}
	return nil
}
