package eval

import (
	"mapit/internal/as2org"
	"mapit/internal/audit"
	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/hostnames"
	"mapit/internal/inet"
	"mapit/internal/ixp"
	"mapit/internal/relation"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// Env is a fully prepared experiment environment: one generated world,
// its traceroute dataset, the noisy public metadata MAP-IT consumes, and
// a verifier per evaluation network — exact ground truth for the R&E
// network (the Internet2 analogue) and DNS-approximate ground truth for
// the two Tier 1s (the Level 3 / TeliaSonera analogues).
type Env struct {
	World     *topo.World
	Dataset   *trace.Dataset
	Sanitized *trace.Sanitized

	// Public inputs (what MAP-IT sees).
	Table *bgp.Table
	Orgs  *as2org.Orgs
	Rels  *relation.Dataset
	IXP   *ixp.Directory

	// Verifiers keyed by topo.SpecialREN / SpecialT1A / SpecialT1B.
	Verifiers map[string]Verifier
	// Networks maps the same keys to the evaluation ASes.
	Networks map[string]*topo.AS

	cfg EnvConfig
}

// EnvConfig bundles every generation knob.
type EnvConfig struct {
	Gen   topo.GenConfig
	Trace topo.TraceConfig
	Meta  topo.NoiseConfig
	DNS   hostnames.NoiseConfig

	// Workers is forwarded to core.Config by Env.Config. Results are
	// identical for any value; zero or one means serial.
	Workers int

	// Audit, when set, is forwarded to core.Config by Env.Config so
	// experiment runs execute under the runtime invariant auditor.
	Audit *audit.Checker
}

// DefaultEnvConfig is the experiment suite's standard environment.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		Gen:   topo.DefaultGenConfig(),
		Trace: topo.DefaultTraceConfig(),
		Meta:  topo.DefaultNoiseConfig(),
		DNS:   hostnames.DefaultNoiseConfig(),
	}
}

// SmallEnvConfig is a fast environment for tests.
func SmallEnvConfig() EnvConfig {
	c := DefaultEnvConfig()
	c.Gen = topo.SmallGenConfig()
	c.Trace.DestsPerMonitor = 400
	return c
}

// LargeEnvConfig is the headline experiment environment: a bigger world
// and a deeper probe sweep, so the evaluation networks accumulate
// hundreds of verifiable links.
func LargeEnvConfig() EnvConfig {
	c := DefaultEnvConfig()
	c.Gen = topo.LargeGenConfig()
	c.Trace.DestsPerMonitor = 4000
	return c
}

// NewEnv generates the world, runs the trace engine, derives public
// inputs and builds the verifiers. Deterministic in cfg.
func NewEnv(cfg EnvConfig) *Env {
	w := topo.Generate(cfg.Gen)
	ds := w.GenTraces(cfg.Trace)
	s := ds.Sanitize()
	orgs, rels, dir := w.PublicInputs(cfg.Meta)
	e := &Env{
		World:     w,
		Dataset:   ds,
		Sanitized: s,
		Table:     w.Table(),
		Orgs:      orgs,
		Rels:      rels,
		IXP:       dir,
		Verifiers: make(map[string]Verifier),
		Networks:  make(map[string]*topo.AS),
		cfg:       cfg,
	}
	// Freeze the lookup sources into their compiled multibit form up
	// front: the verifiers below, every baseline pass, and each core run
	// over this environment resolve against the same table, so one
	// compile amortises across the whole experiment.
	e.Table.Freeze()
	e.IXP.Freeze()
	truth := w.Truth()
	for key, as := range w.Special {
		e.Networks[key] = as
		if key == topo.SpecialREN {
			e.Verifiers[key] = NewExactVerifier(w, as, s, rels)
			continue
		}
		recs := hostnameRecords(w, truth, as, cfg.DNS)
		e.Verifiers[key] = NewApproxVerifier(as.ASN, recs, s, e.Table, orgs, rels)
	}
	return e
}

// hostnameRecords builds the DNS records the approximate verifier parses:
// the target's own interfaces plus the far sides of its point-to-point
// inter-AS links (the paper resolves dataset interfaces "along with their
// inferred other side").
func hostnameRecords(w *topo.World, truth map[inet.Addr]topo.IfaceTruth,
	target *topo.AS, cfg hostnames.NoiseConfig) []hostnames.Record {

	targetOrg := w.Orgs.Canonical(target.ASN)
	perOwner := make(map[inet.ASN][]hostnames.IfaceInfo)
	seen := make(map[inet.Addr]bool)
	addIface := func(addr inet.Addr) {
		if seen[addr] {
			return
		}
		seen[addr] = true
		t := truth[addr]
		info := hostnames.IfaceInfo{Addr: addr, Fabric: t.IXP}
		if t.InterAS && !t.IXP {
			info.External = true
			info.Peer = t.ConnectedASes[0]
		}
		perOwner[t.RouterAS] = append(perOwner[t.RouterAS], info)
	}
	for addr, t := range truth {
		if w.Orgs.Canonical(t.RouterAS) == targetOrg {
			addIface(addr)
			if t.InterAS && !t.OtherSide.IsZero() {
				addIface(t.OtherSide)
			}
		}
	}
	var neighbours []inet.ASN
	for _, p := range append(append(target.Providers(), target.Peers()...), target.Customers()...) {
		neighbours = append(neighbours, p.ASN)
	}
	var out []hostnames.Record
	for owner, infos := range perOwner {
		out = append(out, hostnames.Generate(owner, infos, neighbours, cfg)...)
	}
	return out
}

// Config assembles the core.Config for a run over this environment.
func (e *Env) Config(f float64) core.Config {
	return core.Config{
		IP2AS:   e.Table,
		Orgs:    e.Orgs,
		Rels:    e.Rels,
		IXP:     e.IXP,
		F:       f,
		Workers: e.cfg.Workers,
		Audit:   e.cfg.Audit,
	}
}

// Run executes MAP-IT over the environment.
func (e *Env) Run(cfg core.Config) (*core.Result, error) {
	return core.Run(e.Sanitized, cfg)
}

// ScoreAll scores an inference set against every verifier.
func (e *Env) ScoreAll(infs []core.Inference) map[string]*Breakdown {
	out := make(map[string]*Breakdown, len(e.Verifiers))
	for key, v := range e.Verifiers {
		out[key] = v.Score(infs)
	}
	return out
}
