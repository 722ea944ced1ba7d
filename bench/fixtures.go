package main

import (
	"bytes"
	"cmp"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mapit"
	"mapit/internal/bgp"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// sizes fixes the fixture dimensions and load shapes of every workload.
// defaultSizes is what the benchmark runs; the smoke test shrinks it.
type sizes struct {
	smallWorld bool // topo.SmallGenConfig instead of the default world

	batchDests  int   // destinations per monitor in the batch/spill corpus
	spillBudget int64 // spill workload's collector memory budget, bytes
	minReps     int   // fewest timed pipeline reps

	windowDests int   // window corpus: one probe per monitor per second
	windowSec   int64 // window span
	stepSec     int64 // advance cadence
	minSteady   int   // fewest steady-state advances a valid run makes

	serveDests  int           // startup corpus of the serve workloads
	ingestDests int           // each serve-mixed ingest batch
	refRate     float64       // serve-read reference rate, lookups/s
	mixedRate   float64       // serve-mixed read rate, lookups/s
	loadStep    time.Duration // serve-read step: percentiles are taken per step
	ingestEvery time.Duration // serve-mixed step: one ingest each
	samples     int           // lookups re-checked after the timed phase
}

var defaultSizes = sizes{
	batchDests:  15000,
	spillBudget: 4 << 20,
	minReps:     5,
	windowDests: 4140,
	windowSec:   900,
	stepSec:     15,
	minSteady:   200,
	serveDests:  6000,
	ingestDests: 750,
	refRate:     8000,
	mixedRate:   4000,
	loadStep:    time.Second,
	ingestEvery: 1250 * time.Millisecond,
	samples:     256,
}

// worldSeed fixes the synthetic Internet every run measures. The run's
// seed varies what is probed (the traceroute sweep, its artifacts and
// timestamps) and the metadata noise, not the topology: topologies from
// different generator seeds differ by up to 1.8x in peak heap, which
// would swamp the run-to-run spread a change has to clear.
const worldSeed = 1

// world generates the benchmark's synthetic Internet.
func world(sz sizes) *topo.World {
	gen := topo.DefaultGenConfig()
	if sz.smallWorld {
		gen = topo.SmallGenConfig()
	}
	gen.Seed = worldSeed
	return topo.Generate(gen)
}

// traceConfig is the traceroute sweep a fixture corpus is made of.
func traceConfig(seed int64, dests int) topo.TraceConfig {
	tc := topo.DefaultTraceConfig()
	tc.Seed = seed
	tc.DestsPerMonitor = dests
	return tc
}

// writeMeta writes the RIB and the noisy public metadata (the files the
// mapit CLI and mapitd read with -rib, -orgs, -rels and -ixp).
func writeMeta(dir string, w *topo.World, seed int64) error {
	noise := topo.DefaultNoiseConfig()
	noise.Seed = seed + 2
	orgs, rels, ixps := w.PublicInputs(noise)
	for name, fn := range map[string]func(io.Writer) error{
		"rib.txt":  func(f io.Writer) error { return bgp.WriteRIB(f, w.Announcements) },
		"orgs.txt": orgs.Write,
		"rels.txt": rels.Write,
		"ixp.txt":  ixps.Write,
	} {
		if err := writeFile(filepath.Join(dir, name), fn); err != nil {
			return err
		}
	}
	return nil
}

// writeCorpus streams a sweep into an MTRC v3 block file and returns its
// trace count.
func writeCorpus(path string, w *topo.World, tc topo.TraceConfig) (int64, error) {
	var n int64
	err := writeFile(path, func(f io.Writer) error {
		bw, err := trace.NewBlockWriter(f, 0)
		if err != nil {
			return err
		}
		n, err = streamBlocks(bw, w, tc)
		return err
	})
	return n, err
}

// encodeCorpus is writeCorpus into memory, for ingest request bodies.
func encodeCorpus(w *topo.World, tc topo.TraceConfig) ([]byte, int64, error) {
	var buf bytes.Buffer
	bw, err := trace.NewBlockWriter(&buf, 0)
	if err != nil {
		return nil, 0, err
	}
	n, err := streamBlocks(bw, w, tc)
	return buf.Bytes(), n, err
}

func streamBlocks(bw *trace.BlockWriter, w *topo.World, tc topo.TraceConfig) (int64, error) {
	var err error
	w.StreamTraces(tc, func(t trace.Trace) bool {
		err = bw.Add(t)
		return err == nil
	})
	if err == nil {
		err = bw.Flush()
	}
	return bw.Traces(), err
}

// writeTimedCorpus writes a timestamped sweep, one probe per monitor per
// second, sorted by time as MTRC v4 (the format mapit -window replays).
func writeTimedCorpus(path string, w *topo.World, tc topo.TraceConfig) (int64, error) {
	tc.Timestamps = true
	tc.TimeBase = 1_700_000_000
	tc.TimeStep = 1
	ds := w.GenTraces(tc)
	slices.SortStableFunc(ds.Traces, func(a, b trace.Trace) int { return cmp.Compare(a.Time, b.Time) })
	err := writeFile(path, func(f io.Writer) error { return trace.WriteBinaryBlocksV4(f, ds, 0) })
	return int64(len(ds.Traces)), err
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// loadConfig is the set-up every mapit invocation pays: read the RIB and
// compile its LPM table, then read the sibling, relationship and IXP
// datasets.
func loadConfig(dir string) (mapit.Config, error) {
	table, err := mapit.ReadRIBFile(filepath.Join(dir, "rib.txt"))
	if err != nil {
		return mapit.Config{}, err
	}
	table.Freeze()
	cfg := mapit.Config{IP2AS: table, F: 0.5, Workers: runtime.GOMAXPROCS(0)}
	if cfg.Orgs, err = mapit.ReadOrgsFile(filepath.Join(dir, "orgs.txt")); err != nil {
		return cfg, err
	}
	if cfg.Rels, err = mapit.ReadRelationshipsFile(filepath.Join(dir, "rels.txt")); err != nil {
		return cfg, err
	}
	cfg.IXP, err = mapit.ReadIXPFile(filepath.Join(dir, "ixp.txt"))
	return cfg, err
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// timedSetup loads the configuration setupReps times and returns the
// last load with the median load time in seconds.
func timedSetup(dir string) (mapit.Config, float64, error) {
	var cfg mapit.Config
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if cfg, err = loadConfig(dir); err != nil {
			return cfg, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return cfg, median(times), nil
}
