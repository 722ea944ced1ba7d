// Command mapit runs the MAP-IT algorithm over a traceroute dataset and
// prints the inferred inter-AS link interfaces.
//
// Usage:
//
//	mapit -traces traces.txt -rib rib.txt [-orgs orgs.txt]
//	      [-rels rels.txt] [-ixp ixp.txt] [-f 0.5] [-workers N]
//	      [-format tsv|json] [-uncertain] [-links] [-stats] [-strict]
//	      [-lookup addr[,addr...]]
//	      [-audit off|sampled|exhaustive]
//	      [-window 10m -step 1m]
//	      [-mem-budget 256M] [-spill-dir DIR]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// "-traces -" reads the dataset from stdin (any format; pipes work —
// the sniffer never seeks). Binary inputs decode permissively by
// default: corrupt v3 blocks are skipped and counted (see -stats);
// -strict turns any corruption into a hard error with offset context.
//
// -mem-budget caps the ingest collector's evidence memory (suffixes K,
// M, G; e.g. 256M): evidence over the budget spills to sorted columnar
// segment files under -spill-dir (default: the system temp directory)
// and finalisation merges them back with bounded memory. The inference
// output is byte-identical to an unbudgeted run; -stats reports the
// spill activity. Only binary inputs stream record-at-a-time; text and
// JSONL corpora are parsed whole before the collector sees them.
//
// -lookup resolves specific addresses instead of dumping the full
// result: the run's inferences are compiled into a query snapshot
// (internal/snapshot) and each requested address prints as one JSON
// object with every matching inference record (an empty list for
// addresses the run made no inference about). -lookup output is always
// JSON and includes uncertain records; combining it with -format,
// -links or -uncertain is rejected (exit 2) rather than silently
// ignored.
//
// -window and -step replay a timestamped corpus (MTRC v4 or JSONL with
// "time" fields, sorted by time — cmd/gentopo -timestamps emits both)
// through the sliding-window engine: the window advances every -step,
// each advance re-running the inference over only the traces inside the
// trailing -window span. -stats prints one churn line per advance
// (link births/deaths, interface flaps); the final window position's
// inferences print through the normal output paths.
//
// -audit runs the runtime invariant auditor alongside the inference:
// at every fixpoint step boundary the maintained state is
// cross-checked against first-principles recomputation ("sampled"
// checks a rotating stride of each structure, "exhaustive" checks
// everything). Violations print to stderr and exit non-zero.
//
// Input formats are documented in the repository README; cmd/gentopo
// produces a complete compatible dataset from a synthetic Internet.
// The mapitd daemon serves the same inferences over HTTP instead of
// printing them once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mapit"
	"mapit/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses flags, executes the pipeline, and
// returns the process exit code (0 ok, 1 runtime or audit failure, 2
// usage). main is a one-line wrapper so every deferred cleanup — the
// CPU profile stop and profile file close above all — fires on every
// exit path; calling os.Exit from a helper would skip them and leave a
// failed -cpuprofile run with a truncated, unparseable profile.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mapit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracesPath = fs.String("traces", "", "traceroute dataset (required; \"-\" reads stdin)")
		ribPath    = fs.String("rib", "", "BGP RIB dump (required)")
		orgsPath   = fs.String("orgs", "", "AS-to-organisation (sibling) dataset")
		relsPath   = fs.String("rels", "", "AS relationship dataset (enables the stub heuristic)")
		ixpPath    = fs.String("ixp", "", "IXP prefix/ASN directory")
		f          = fs.Float64("f", 0.5, "evidence threshold f in [0,1] (§4.4.1)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel ingest and scan workers (results are identical for any value)")
		format     = fs.String("format", "tsv", "output format: tsv or json")
		uncertain  = fs.Bool("uncertain", false, "also print uncertain inferences")
		links      = fs.Bool("links", false, "print aggregated AS links instead of interfaces")
		stats      = fs.Bool("stats", false, "print run diagnostics (incl. decode health) to stderr")
		lookup     = fs.String("lookup", "", "comma-separated addresses: print only their inferences, as JSON")
		strict     = fs.Bool("strict", false, "abort on any binary-input corruption instead of skipping corrupt blocks")
		memBudget  = fs.String("mem-budget", "", "ingest evidence memory budget (e.g. 64M, 1G); empty keeps everything in memory")
		spillDir   = fs.String("spill-dir", "", "directory for spill segment files (default: system temp dir)")
		auditFlag  = fs.String("audit", "off", "runtime invariant auditor: off, sampled, or exhaustive")
		window     = fs.Duration("window", 0, "sliding-window replay: retain only traces within this trailing span (requires -step and a timestamped corpus)")
		step       = fs.Duration("step", 0, "sliding-window replay: advance the window in steps of this duration")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile covering ingest + inference to this file")
		memprofile = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "mapit:", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mapit:", err)
		return 1
	}

	if *tracesPath == "" || *ribPath == "" {
		fs.Usage()
		return 2
	}
	if err := validateFormat(*format); err != nil {
		return usage(err)
	}
	if err := validateFlags(setFlags(fs)); err != nil {
		return usage(err)
	}
	if err := validateWindowFlags(setFlags(fs), *window, *step); err != nil {
		return usage(err)
	}
	auditMode, err := mapit.ParseAuditMode(*auditFlag)
	if err != nil {
		return usage(err)
	}
	// Bad addresses must fail before the (potentially long) run starts.
	lookupAddrs, err := parseLookup(*lookup)
	if err != nil {
		return usage(err)
	}
	budget, err := parseMemBudget(*memBudget)
	if err != nil {
		return usage(err)
	}
	spill := mapit.SpillConfig{Dir: *spillDir, MemBudget: budget}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		// Registered before StopCPUProfile so the deferred stop runs
		// first and the profile is fully flushed before the close.
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	table, err := mapit.ReadRIBFile(*ribPath)
	if err != nil {
		return fail(err)
	}
	// Compile the table into its flat multibit form before the ingest
	// workers start hammering it (RunEvidence would freeze it anyway;
	// doing it here keeps the compile out of the profiled hot loop).
	table.Freeze()

	cfg := mapit.Config{IP2AS: table, F: *f, Workers: *workers}
	if auditMode != mapit.AuditOff {
		cfg.Audit = &mapit.AuditChecker{Mode: auditMode}
	}
	if *orgsPath != "" {
		if cfg.Orgs, err = mapit.ReadOrgsFile(*orgsPath); err != nil {
			return fail(err)
		}
	}
	if *relsPath != "" {
		if cfg.Rels, err = mapit.ReadRelationshipsFile(*relsPath); err != nil {
			return fail(err)
		}
	}
	if *ixpPath != "" {
		if cfg.IXP, err = mapit.ReadIXPFile(*ixpPath); err != nil {
			return fail(err)
		}
	}

	var res *mapit.Result
	if *window > 0 {
		res, err = runWindowTraces(*tracesPath, cfg, *strict, *window, *step, *stats, stderr)
	} else {
		res, err = runTraces(*tracesPath, cfg, *strict, spill)
	}
	if err != nil {
		return fail(err)
	}

	if *memprofile != "" {
		pf, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC() // settle the heap so the profile shows live retained state
		if err := pprof.WriteHeapProfile(pf); err != nil {
			return fail(err)
		}
		if err := pf.Close(); err != nil {
			return fail(err)
		}
	}

	if *stats {
		d := res.Diag
		fmt.Fprintf(stderr,
			"interfaces=%d eligible_fwd=%d eligible_back=%d iterations=%d "+
				"add_passes=%d dual=%d inverse=%d divergent=%d stub=%d slash31=%.3f\n",
			d.Interfaces, d.EligibleForward, d.EligibleBackward, d.Iterations,
			d.AddPasses, d.DualResolved, d.InverseDiscarded, d.DivergentOtherSides,
			d.StubInferences, d.Slash31Fraction)
		fmt.Fprintf(stderr, "decode: %s\n", d.Decode.String())
		fmt.Fprintf(stderr, "spill: %s\n", d.Spill.String())
		if d.Window.Advances > 0 {
			fmt.Fprintf(stderr, "window: %s\n", d.Window.String())
		}
	}
	if rep := res.Audit; rep != nil {
		if *stats || !rep.Ok() {
			fmt.Fprintln(stderr, rep)
		}
		if !rep.Ok() {
			for _, v := range rep.Violations {
				fmt.Fprintln(stderr, "mapit: audit:", v.String())
			}
			if rep.Dropped > 0 {
				fmt.Fprintf(stderr, "mapit: audit: ... and %d more violations\n", rep.Dropped)
			}
			return 1
		}
	}

	var printErr error
	switch {
	case len(lookupAddrs) > 0:
		printErr = printLookup(stdout, res, lookupAddrs)
	case *links:
		printErr = printLinks(stdout, res, *format)
	default:
		printErr = printInferences(stdout, res, *format, *uncertain)
	}
	if printErr != nil {
		return fail(printErr)
	}
	return 0
}

// setFlags reports which flags were explicitly set on the command line,
// distinguishing "-format tsv" (set) from the tsv default (unset).
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateFlags rejects flag combinations the command would otherwise
// silently ignore: -lookup output is always JSON and already includes
// uncertain records, so combining it with -format, -links or -uncertain
// is a contradiction, not a preference — exit 2, like validateFormat.
func validateFlags(set map[string]bool) error {
	if !set["lookup"] {
		return nil
	}
	var conflicts []string
	for _, name := range []string{"format", "links", "uncertain"} {
		if set[name] {
			conflicts = append(conflicts, "-"+name)
		}
	}
	if len(conflicts) == 0 {
		return nil
	}
	return fmt.Errorf("-lookup does not combine with %s (lookup output is always JSON and includes uncertain records)",
		strings.Join(conflicts, ", "))
}

// validateWindowFlags rejects inconsistent sliding-window flag
// combinations: -window and -step come as a pair of whole-second
// durations, and replay keeps the window's evidence in memory, so the
// out-of-core knobs and the one-shot -lookup mode don't combine.
func validateWindowFlags(set map[string]bool, window, step time.Duration) error {
	if !set["window"] && !set["step"] {
		return nil
	}
	if !set["window"] || !set["step"] {
		return fmt.Errorf("-window and -step must be given together")
	}
	if window < time.Second || window%time.Second != 0 {
		return fmt.Errorf("-window must be a whole number of seconds, at least 1s (got %v)", window)
	}
	if step < time.Second || step%time.Second != 0 {
		return fmt.Errorf("-step must be a whole number of seconds, at least 1s (got %v)", step)
	}
	for _, name := range []string{"lookup", "mem-budget", "spill-dir"} {
		if set[name] {
			return fmt.Errorf("-window does not combine with -%s (windowed replay keeps its evidence in memory and prints the final window)", name)
		}
	}
	return nil
}

// parseLookup splits and parses the -lookup address list; empty input
// means the flag is unset.
func parseLookup(s string) ([]mapit.Addr, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	addrs := make([]mapit.Addr, 0, len(parts))
	for _, p := range parts {
		a, err := mapit.ParseAddr(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid -lookup address %q", p)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// validateFormat rejects unknown -format values so a typo exits 2 with
// usage instead of silently falling through to TSV output.
func validateFormat(format string) error {
	switch format {
	case "tsv", "json":
		return nil
	}
	return fmt.Errorf("unknown -format %q (want tsv or json)", format)
}

// parseMemBudget parses a byte size with an optional K/M/G suffix
// (1024-based), e.g. "64M" or "1G". Empty means 0: no budget.
func parseMemBudget(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		num, mult = s[:len(s)-1], 1<<10
	case 'm', 'M':
		num, mult = s[:len(s)-1], 1<<20
	case 'g', 'G':
		num, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > (1<<62)/mult {
		return 0, fmt.Errorf("invalid -mem-budget %q (want e.g. 64M, 1G)", s)
	}
	return n * mult, nil
}

// runTraces executes MAP-IT over the dataset at path; "-" reads stdin.
func runTraces(path string, cfg mapit.Config, strict bool, spill mapit.SpillConfig) (*mapit.Result, error) {
	if path == "-" {
		return runTraceReader(os.Stdin, cfg, strict, spill)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return runTraceReader(f, cfg, strict, spill)
}

// runTraceReader executes MAP-IT over a trace dataset read from in
// through the shared sniffing ingest pipeline (mapit.Ingestor, also the
// mapitd daemon's ingest path): the format is sniffed from the first
// bytes via Peek — no seeking, so pipes and stdin work — and every
// trace streams through a parallel collector (sanitisation and adjacency
// deduplication run on cfg.Workers goroutines). Unless strict, binary
// inputs decode permissively: corrupt v3 blocks are skipped and tallied
// into the result's decode-health diagnostics. A spill budget (see
// -mem-budget) bounds the collector's evidence memory.
func runTraceReader(in io.Reader, cfg mapit.Config, strict bool, spill mapit.SpillConfig) (*mapit.Result, error) {
	ing := mapit.NewIngestor(mapit.IngestOptions{
		Workers: cfg.Workers,
		Strict:  strict,
		Spill:   spill,
	})
	defer ing.Close()
	if _, err := ing.Ingest(in); err != nil {
		return nil, err
	}
	ev, err := ing.Finish()
	if err != nil {
		return nil, err
	}
	cfg.DecodeStats = ing.DecodeStats()
	spilled := ing.SpillStats()
	cfg.SpillStats = &spilled
	return mapit.InferEvidence(ev, cfg)
}

// runWindowTraces replays a timestamped corpus through a sliding
// window (mapit.WindowReplay): the window advances every step, each
// advance re-running the inference over only the traces still inside
// the trailing span. When stats is set, each advance prints one churn
// line to stderr; the returned result is the final window position's,
// printed through the same output paths as a batch run.
func runWindowTraces(path string, cfg mapit.Config, strict bool,
	window, step time.Duration, stats bool, stderr io.Writer) (*mapit.Result, error) {

	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	var dstats mapit.DecodeStats
	cfg.DecodeStats = &dstats
	win, err := mapit.NewWindow(mapit.WindowOptions{Length: window, Config: cfg})
	if err != nil {
		return nil, err
	}
	var res *mapit.Result
	err = mapit.WindowReplay(in, win, mapit.DecodeOptions{Permissive: !strict, Stats: &dstats},
		int64(step/time.Second), func(now int64, r *mapit.Result) error {
			res = r
			if stats {
				fmt.Fprintf(stderr, "window advance now=%d %s\n", now, r.Diag.Window.String())
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("window replay: corpus carried no traces")
	}
	return res, nil
}

func printInferences(w io.Writer, res *mapit.Result, format string, uncertain bool) error {
	var out []mapit.Inference
	for _, inf := range res.Inferences {
		if inf.Uncertain && !uncertain {
			continue
		}
		out = append(out, inf)
	}
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		recs := make([]serve.InferenceRecord, 0, len(out))
		for _, inf := range out {
			recs = append(recs, serve.NewInferenceRecord(inf))
		}
		return enc.Encode(recs)
	default:
		fmt.Fprintln(w, "# addr\tdirection\tlocal_as\tconnected_as\tother_side\tflags")
		for _, inf := range out {
			flags := ""
			if inf.Uncertain {
				flags += "uncertain,"
			}
			if inf.Stub {
				flags += "stub,"
			}
			if inf.Indirect {
				flags += "indirect,"
			}
			if flags == "" {
				flags = "-"
			} else {
				flags = flags[:len(flags)-1]
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%s\n",
				inf.Addr, inf.Dir, uint32(inf.Local), uint32(inf.Connected),
				inf.OtherSide, flags)
		}
		return nil
	}
}

// printLookup compiles the result into a query snapshot and prints one
// JSON object per requested address, in request order, each with every
// matching inference record (empty for uninferred addresses). The
// records are the serve package's wire shapes: byte-identical to what
// mapitd's /v1/lookup returns for the same addresses.
func printLookup(w io.Writer, res *mapit.Result, addrs []mapit.Addr) error {
	snap := mapit.BuildSnapshot(res, nil)
	recs := make([]serve.LookupRecord, 0, len(addrs))
	for _, a := range addrs {
		recs = append(recs, serve.NewLookupRecord(snap, a))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

func printLinks(w io.Writer, res *mapit.Result, format string) error {
	links := res.Links()
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		recs := make([]serve.LinkRecord, 0, len(links))
		for _, l := range links {
			recs = append(recs, serve.NewLinkRecord(l))
		}
		return enc.Encode(recs)
	default:
		fmt.Fprintln(w, "# as_a\tas_b\tinterfaces")
		for _, l := range links {
			fmt.Fprintf(w, "%d\t%d\t", uint32(l.A), uint32(l.B))
			for i, a := range l.Addrs {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprint(w, a)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}
