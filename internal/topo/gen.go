package topo

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"mapit/internal/as2org"
	"mapit/internal/bgp"
	"mapit/internal/inet"
	"mapit/internal/ixp"
	"mapit/internal/relation"
)

// GenConfig parameterises world generation. The zero value is unusable;
// start from DefaultGenConfig.
type GenConfig struct {
	Seed int64

	// Hierarchy sizes.
	Tier1s    int
	Tier2s    int
	Regionals int
	Stubs     int

	// SiblingOrgs is the number of multi-AS organisations to plant.
	SiblingOrgs int
	// IXPs is the number of exchange points.
	IXPs int
	// Collectors is the number of BGP route collectors.
	Collectors int
	// Monitors is the number of traceroute vantage points.
	Monitors int

	// Slash31Frac is the fraction of point-to-point links numbered from
	// /31 prefixes (the paper measures 40.4%).
	Slash31Frac float64
	// CustomerSpaceTransitFrac is the probability a transit link is
	// numbered from the customer's space, violating the provider-space
	// convention (§3, §4.8).
	CustomerSpaceTransitFrac float64
	// RENCustomerSpaceFrac overrides CustomerSpaceTransitFrac for
	// transit links of the designated research-and-education network,
	// reproducing the Internet2 behaviour in Fig 1.
	RENCustomerSpaceFrac float64
	// IXPPeeringFrac is the share of peerings realised across an IXP
	// LAN instead of a private point-to-point link.
	IXPPeeringFrac float64

	// UnresponsiveRouterProb silences individual routers.
	UnresponsiveRouterProb float64
	// BuggyRouterProb gives routers the TTL=1-forwarding bug (§4.1).
	BuggyRouterProb float64
	// SilentBorderASFrac silences all border routers of a fraction of
	// ASes (§3.3).
	SilentBorderASFrac float64
	// NATStubFrac puts a fraction of stubs behind a NAT (§4.8): every
	// router in the stub replies with the stub-side interface address
	// of one of its provider links, and hosts never answer.
	NATStubFrac float64
	// QuietHostsStubFrac / QuietHostsRegionalFrac silence end hosts in
	// a fraction of edge networks, producing the low-visibility stubs
	// the §4.8 heuristic exists for.
	QuietHostsStubFrac     float64
	QuietHostsRegionalFrac float64
	// UnannouncedASFrac leaves a fraction of stub ASes out of BGP.
	UnannouncedASFrac float64
	// MOASFrac multi-homes a fraction of stub prefixes into a second
	// origin (a provider), producing MOAS prefixes.
	MOASFrac float64
	// CollectorVisibility is the probability that a given collector
	// sees a given AS's announcements.
	CollectorVisibility float64
}

// DefaultGenConfig returns the world used by the repository's experiment
// suite: a medium Internet whose statistics echo the paper's dataset
// (§4.1–§4.3) at laptop scale.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:                     1,
		Tier1s:                   8,
		Tier2s:                   30,
		Regionals:                80,
		Stubs:                    400,
		SiblingOrgs:              12,
		IXPs:                     6,
		Collectors:               12,
		Monitors:                 32,
		Slash31Frac:              0.40,
		CustomerSpaceTransitFrac: 0.15,
		RENCustomerSpaceFrac:     0.55,
		IXPPeeringFrac:           0.25,
		UnresponsiveRouterProb:   0.02,
		BuggyRouterProb:          0.01,
		SilentBorderASFrac:       0.03,
		NATStubFrac:              0.12,
		QuietHostsStubFrac:       0.60,
		QuietHostsRegionalFrac:   0.10,
		UnannouncedASFrac:        0.02,
		MOASFrac:                 0.03,
		CollectorVisibility:      0.95,
	}
}

// LargeGenConfig returns a bigger Internet for headline experiment runs:
// several times the default's edge networks and vantage points, giving
// the Tier 1 evaluation networks hundreds of links as in the paper.
func LargeGenConfig() GenConfig {
	c := DefaultGenConfig()
	c.Tier2s = 45
	c.Regionals = 150
	c.Stubs = 1200
	c.SiblingOrgs = 25
	c.IXPs = 10
	c.Monitors = 48
	return c
}

// SmallGenConfig returns a small world for fast tests.
func SmallGenConfig() GenConfig {
	c := DefaultGenConfig()
	c.Tier1s, c.Tier2s, c.Regionals, c.Stubs = 3, 6, 12, 40
	c.SiblingOrgs = 3
	c.IXPs = 2
	c.Collectors = 4
	c.Monitors = 6
	return c
}

// Special network keys in World.Special.
const (
	// SpecialREN is the research-and-education network (the Internet2
	// analogue: exact ground truth, customer-space transit links).
	SpecialREN = "REN"
	// SpecialT1A and SpecialT1B are the two large Tier 1 transit
	// networks (the Level 3 / TeliaSonera analogues: DNS-approximate
	// ground truth).
	SpecialT1A = "T1A"
	SpecialT1B = "T1B"
)

// genState carries generator scratch.
type genState struct {
	w        *World
	cfg      GenConfig
	rng      *rand.Rand
	next16   uint32 // next /16 candidate, as base address
	linkIdx  map[[2]inet.ASN][]*Link
	ptpAlloc map[*AS]*ptpAllocator
	special  map[string]*AS
}

// ptpAllocator hands out /30 and /31 prefixes from an AS's
// infrastructure half (x.y.0.0/17).
type ptpAllocator struct {
	base   inet.Addr
	cursor uint32
	limit  uint32
}

func (p *ptpAllocator) alloc(size uint32) inet.Addr {
	// Align.
	if p.cursor%size != 0 {
		p.cursor += size - p.cursor%size
	}
	a := p.base + inet.Addr(p.cursor)
	p.cursor += size
	if p.cursor > p.limit {
		panic("topo: AS infrastructure space exhausted")
	}
	return a
}

// Generate builds a world from the configuration. Generation is fully
// deterministic in cfg (including Seed).
func Generate(cfg GenConfig) *World {
	g := &genState{
		w: &World{
			ByASN:  make(map[inet.ASN]*AS),
			Ifaces: make(map[inet.Addr]*Iface),
			Rels:   relation.New(),
			Orgs:   as2org.New(),
		},
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		next16:   16 << 24, // /16s are allocated upwards from 16.0.0.0
		linkIdx:  make(map[[2]inet.ASN][]*Link),
		ptpAlloc: make(map[*AS]*ptpAllocator),
		special:  make(map[string]*AS),
	}
	g.w.cfg = cfg
	g.w.Directory = ixp.New()

	g.makeASes()
	g.makeRelationships()
	g.makeSiblings()
	g.makeRouters()
	g.makeIXPs()
	g.makeInterLinks()
	g.markArtifacts()
	g.makeAnnouncements()
	g.makeMonitors()

	g.w.routes = newRouteCache(g.w)
	g.w.linkIdx = g.linkIdx
	g.w.Special = g.special
	return g.w
}

func (g *genState) allocPrefix16() inet.Prefix {
	for {
		p := inet.Prefix{Base: inet.Addr(g.next16), Len: 16}
		g.next16 += 1 << 16
		if g.next16 >= 224<<24 {
			panic("topo: global /16 pool exhausted")
		}
		special := false
		for _, sp := range inet.SpecialPrefixes() {
			if p.Overlaps(sp) {
				special = true
				break
			}
		}
		if !special {
			return p
		}
	}
}

func (g *genState) newAS(asn inet.ASN, tier Tier) *AS {
	a := &AS{ASN: asn, Tier: tier, Org: fmt.Sprintf("ORG-%d", asn)}
	a.Prefixes = []inet.Prefix{g.allocPrefix16()}
	if tier == Tier1 {
		a.Prefixes = append(a.Prefixes, g.allocPrefix16())
	}
	g.ptpAlloc[a] = &ptpAllocator{base: a.Prefixes[0].Base, limit: 1 << 15}
	g.w.ASes = append(g.w.ASes, a)
	g.w.ByASN[asn] = a
	return a
}

// hostSpace is the AS's end-system half (x.y.128.0/17 of the first /16).
func (a *AS) hostSpace() inet.Prefix {
	return inet.Prefix{Base: a.Prefixes[0].Base + 1<<15, Len: 17}
}

// HostAddr deterministically yields destination addresses inside the
// AS's host space.
func (a *AS) HostAddr(n uint32) inet.Addr {
	return a.hostSpace().Base + inet.Addr(n%(1<<15-2)) + 1
}

func (g *genState) makeASes() {
	asn := inet.ASN(1)
	for i := 0; i < g.cfg.Tier1s; i++ {
		g.newAS(asn, Tier1)
		asn++
	}
	asn = 100
	for i := 0; i < g.cfg.Tier2s; i++ {
		g.newAS(asn, Tier2)
		asn++
	}
	asn = 1000
	for i := 0; i < g.cfg.Regionals; i++ {
		g.newAS(asn, Regional)
		asn++
	}
	asn = 10000
	for i := 0; i < g.cfg.Stubs; i++ {
		g.newAS(asn, Stub)
		asn++
	}
	tier1s := g.byTier(Tier1)
	tier2s := g.byTier(Tier2)
	if len(tier1s) >= 2 {
		g.special[SpecialT1A] = tier1s[0]
		g.special[SpecialT1B] = tier1s[1]
	}
	if len(tier2s) > 0 {
		g.special[SpecialREN] = tier2s[0]
	}
}

func (g *genState) byTier(t Tier) []*AS {
	var out []*AS
	for _, a := range g.w.ASes {
		if a.Tier == t {
			out = append(out, a)
		}
	}
	return out
}

func (g *genState) addTransit(provider, customer *AS) {
	for _, c := range provider.customers {
		if c == customer {
			return
		}
	}
	provider.customers = append(provider.customers, customer)
	customer.providers = append(customer.providers, provider)
	g.w.Rels.AddTransit(provider.ASN, customer.ASN)
}

func (g *genState) addPeering(a, b *AS) {
	if a == b {
		return
	}
	for _, p := range a.peers {
		if p == b {
			return
		}
	}
	a.peers = append(a.peers, b)
	b.peers = append(b.peers, a)
	g.w.Rels.AddPeering(a.ASN, b.ASN)
}

func (g *genState) pick(list []*AS) *AS { return list[g.rng.Intn(len(list))] }

func (g *genState) makeRelationships() {
	tier1s := g.byTier(Tier1)
	tier2s := g.byTier(Tier2)
	regionals := g.byTier(Regional)
	stubs := g.byTier(Stub)
	ren := g.special[SpecialREN]

	// Tier 1 clique.
	for i, a := range tier1s {
		for _, b := range tier1s[i+1:] {
			g.addPeering(a, b)
		}
	}
	// Tier 2: 1-3 Tier 1 providers, peerings among Tier 2s.
	for _, a := range tier2s {
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			g.addTransit(g.pick(tier1s), a)
		}
	}
	for i, a := range tier2s {
		for _, b := range tier2s[i+1:] {
			p := 0.12
			if a == ren || b == ren {
				p = 0.30 // the R&E network peers widely
			}
			if g.rng.Float64() < p {
				g.addPeering(a, b)
			}
		}
	}
	// Regionals: 1-2 Tier 2 providers (the REN attracts R&E regionals),
	// sparse peerings.
	for _, a := range regionals {
		n := 1 + g.rng.Intn(2)
		for i := 0; i < n; i++ {
			if ren != nil && g.rng.Float64() < 0.20 {
				g.addTransit(ren, a)
			} else {
				g.addTransit(g.pick(tier2s), a)
			}
		}
	}
	for i, a := range regionals {
		for _, b := range regionals[i+1:] {
			if g.rng.Float64() < 0.01 {
				g.addPeering(a, b)
			}
		}
	}
	// Regionals occasionally buy transit from a Tier 1 directly.
	for _, a := range regionals {
		if g.rng.Float64() < 0.15 {
			g.addTransit(g.pick(tier1s), a)
		}
	}
	// Stubs: 1-3 providers from regionals, Tier 2s and Tier 1s (large
	// transit networks sell to everyone — the paper's Level 3 connects
	// to many stubs directly, §5.5).
	upstream := append(append([]*AS(nil), regionals...), regionals...)
	upstream = append(upstream, tier2s...)
	for i := 0; i < 4; i++ {
		upstream = append(upstream, tier1s...)
	}
	for _, a := range stubs {
		n := 1
		r := g.rng.Float64()
		if r > 0.6 {
			n = 2
		}
		if r > 0.9 {
			n = 3
		}
		for i := 0; i < n; i++ {
			g.addTransit(g.pick(upstream), a)
		}
	}
}

func (g *genState) makeSiblings() {
	// Seed every AS's org, then merge pairs into multi-AS organisations
	// (preferring Tier 2 / regional, like real sibling sets).
	for _, a := range g.w.ASes {
		g.w.Orgs.AddOrgMember(a.ASN, a.Org)
	}
	candidates := append(g.byTier(Tier2), g.byTier(Regional)...)
	for i := 0; i < g.cfg.SiblingOrgs && len(candidates) >= 2; i++ {
		a := g.pick(candidates)
		b := g.pick(candidates)
		if a == b || a == g.special[SpecialREN] || b == g.special[SpecialREN] {
			continue
		}
		b.Org = a.Org
		g.w.Orgs.AddSiblingPair(a.ASN, b.ASN)
	}
}

func (g *genState) routersFor(a *AS) int {
	switch a.Tier {
	case Tier1:
		return 8 + g.rng.Intn(4)
	case Tier2:
		return 4 + g.rng.Intn(3)
	case Regional:
		return 3 + g.rng.Intn(2)
	default:
		// Nearly half the stubs have a border router plus an internal
		// router; combined with silent end hosts this is the
		// low-visibility single-neighbour pattern §4.8 targets.
		if g.rng.Float64() < 0.45 {
			return 2
		}
		return 1
	}
}

func (g *genState) makeRouters() {
	for _, a := range g.w.ASes {
		n := g.routersFor(a)
		for i := 0; i < n; i++ {
			r := &Router{ID: g.w.nextID, AS: a, intra: make(map[*Router]*Iface)}
			g.w.nextID++
			a.Routers = append(a.Routers, r)
		}
		// Intra topology: ring plus random chords.
		rs := a.Routers
		for i := 0; i < len(rs)-1; i++ {
			g.makeIntraLink(a, rs[i], rs[i+1])
		}
		if len(rs) > 2 {
			g.makeIntraLink(a, rs[len(rs)-1], rs[0])
			chords := len(rs) / 3
			for i := 0; i < chords; i++ {
				x, y := g.rng.Intn(len(rs)), g.rng.Intn(len(rs))
				if x != y && rs[x].intra[rs[y]] == nil {
					g.makeIntraLink(a, rs[x], rs[y])
				}
			}
		}
	}
}

// makePtP numbers a point-to-point link from owner's space and wires the
// two interfaces.
func (g *genState) makePtP(kind LinkKind, owner *AS, ra, rb *Router) *Link {
	slash31 := g.rng.Float64() < g.cfg.Slash31Frac
	al := g.ptpAlloc[owner]
	var addrA, addrB inet.Addr
	if slash31 {
		// /31s are carved from their own 4-aligned blocks so that two
		// unrelated /31 links never share one /30 — dense packing would
		// make the §4.2 other-side heuristic cross-pair neighbouring
		// links whenever both far sides are invisible.
		base := al.alloc(4)
		addrA, addrB = base, base+1
	} else {
		base := al.alloc(4)
		addrA, addrB = base+1, base+2
	}
	l := &Link{Kind: kind, PrefixOwner: owner, Slash31: slash31}
	l.A = g.newIface(addrA, ra, l, owner.ASN)
	l.B = g.newIface(addrB, rb, l, owner.ASN)
	g.w.Links = append(g.w.Links, l)
	return l
}

func (g *genState) newIface(addr inet.Addr, r *Router, l *Link, space inet.ASN) *Iface {
	i := &Iface{Addr: addr, Router: r, Link: l, SpaceAS: space}
	r.Ifaces = append(r.Ifaces, i)
	g.w.Ifaces[addr] = i
	return i
}

func (g *genState) makeIntraLink(a *AS, ra, rb *Router) {
	l := g.makePtP(IntraLink, a, ra, rb)
	ra.intra[rb] = l.A
	rb.intra[ra] = l.B
}

func (g *genState) makeIXPs() {
	// Exchange LANs live in 185.1.0.0/16 with ASNs from 60000.
	base := inet.MustParseAddr("185.1.0.0")
	for i := 0; i < g.cfg.IXPs; i++ {
		x := &IXP{
			Name:   fmt.Sprintf("IX-%d", i+1),
			ASN:    inet.ASN(60000 + i),
			Prefix: inet.Prefix{Base: base + inet.Addr(i)<<10, Len: 22},
		}
		g.w.IXPs = append(g.w.IXPs, x)
		g.w.Directory.AddPrefix(x.Prefix, x.Name)
		g.w.Directory.AddASN(x.ASN, x.Name)
	}
}

// ixpIface returns (creating if needed) the router's interface on the
// exchange LAN: one address per router per IXP, shared by all its
// peerings there (multipoint).
func (g *genState) ixpIface(x *IXP, r *Router) *Iface {
	for _, i := range r.Ifaces {
		if i.Link != nil && i.Link.Kind == IXPLink && x.Prefix.Contains(i.Addr) {
			return i
		}
	}
	x.next++
	addr := x.Prefix.Base + inet.Addr(x.next)
	i := &Iface{Addr: addr, Router: r, SpaceAS: 0}
	r.Ifaces = append(r.Ifaces, i)
	g.w.Ifaces[addr] = i
	return i
}

func linkKey(a, b inet.ASN) [2]inet.ASN {
	if a <= b {
		return [2]inet.ASN{a, b}
	}
	return [2]inet.ASN{b, a}
}

// borderRouter picks a deterministic-random router of the AS to terminate
// an inter-AS link.
func (g *genState) borderRouter(a *AS) *Router {
	return a.Routers[g.rng.Intn(len(a.Routers))]
}

func (g *genState) parallelLinks(a, b *AS) int {
	if a.Tier == Tier1 && b.Tier == Tier1 {
		return 1 + g.rng.Intn(3)
	}
	if a.Tier <= Tier2 && b.Tier <= Tier2 {
		if g.rng.Float64() < 0.3 {
			return 2
		}
	}
	return 1
}

func (g *genState) makeInterLinks() {
	// Deterministic edge ordering: walk ASes in generation order.
	ren := g.special[SpecialREN]
	for _, a := range g.w.ASes {
		// Transit links: a as provider.
		for _, c := range a.customers {
			n := g.parallelLinks(a, c)
			for i := 0; i < n; i++ {
				owner := a
				frac := g.cfg.CustomerSpaceTransitFrac
				if a == ren {
					frac = g.cfg.RENCustomerSpaceFrac
				}
				if g.rng.Float64() < frac {
					owner = c
				}
				ra, rb := g.borderRouter(a), g.borderRouter(c)
				l := g.makePtP(InterLink, owner, ra, rb)
				ra.interIfaces = append(ra.interIfaces, l.A)
				rb.interIfaces = append(rb.interIfaces, l.B)
				g.linkIdx[linkKey(a.ASN, c.ASN)] = append(g.linkIdx[linkKey(a.ASN, c.ASN)], l)
			}
		}
	}
	for _, a := range g.w.ASes {
		// Peerings: realised once per unordered pair (a.ASN < peer).
		for _, p := range a.peers {
			if a.ASN >= p.ASN {
				continue
			}
			if len(g.w.IXPs) > 0 && g.rng.Float64() < g.cfg.IXPPeeringFrac {
				x := g.w.IXPs[g.rng.Intn(len(g.w.IXPs))]
				ra, rb := g.borderRouter(a), g.borderRouter(p)
				ia, ib := g.ixpIface(x, ra), g.ixpIface(x, rb)
				l := &Link{Kind: IXPLink, A: ia, B: ib}
				if ia.Link == nil {
					ia.Link = l
				}
				if ib.Link == nil {
					ib.Link = l
				}
				ra.interIfaces = append(ra.interIfaces, ia)
				rb.interIfaces = append(rb.interIfaces, ib)
				g.w.Links = append(g.w.Links, l)
				g.linkIdx[linkKey(a.ASN, p.ASN)] = append(g.linkIdx[linkKey(a.ASN, p.ASN)], l)
				continue
			}
			n := g.parallelLinks(a, p)
			for i := 0; i < n; i++ {
				owner := a
				if g.rng.Float64() < 0.5 {
					owner = p
				}
				ra, rb := g.borderRouter(a), g.borderRouter(p)
				l := g.makePtP(InterLink, owner, ra, rb)
				ra.interIfaces = append(ra.interIfaces, l.A)
				rb.interIfaces = append(rb.interIfaces, l.B)
				g.linkIdx[linkKey(a.ASN, p.ASN)] = append(g.linkIdx[linkKey(a.ASN, p.ASN)], l)
			}
		}
	}
}

func (g *genState) markArtifacts() {
	for _, a := range g.w.ASes {
		switch a.Tier {
		case Stub:
			if g.rng.Float64() < g.cfg.QuietHostsStubFrac {
				a.QuietHosts = true
			}
		case Regional:
			if g.rng.Float64() < g.cfg.QuietHostsRegionalFrac {
				a.QuietHosts = true
			}
		}
		if a.Tier == Stub && g.rng.Float64() < g.cfg.NATStubFrac {
			// The NAT device's WAN interface is the stub-side end of
			// one of its provider links; everything in the stub answers
			// from it and hosts never answer.
			var candidates []*Iface
			for _, r := range a.Routers {
				for _, i := range r.interIfaces {
					if i.Link != nil && i.Link.Kind == InterLink {
						candidates = append(candidates, i)
					}
				}
			}
			if len(candidates) > 0 {
				a.NAT = true
				a.QuietHosts = true
				a.NATAddr = candidates[g.rng.Intn(len(candidates))].Addr
			}
		}
		if a.Tier != Tier1 && g.rng.Float64() < g.cfg.SilentBorderASFrac {
			a.SilentBorders = true
		}
		if a.Tier == Stub && g.rng.Float64() < g.cfg.UnannouncedASFrac {
			a.Unannounced = true
		}
		for _, r := range a.Routers {
			if g.rng.Float64() < g.cfg.UnresponsiveRouterProb {
				r.Unresponsive = true
			}
			if g.rng.Float64() < g.cfg.BuggyRouterProb {
				r.BuggyTTL = true
			}
		}
	}
}

func (g *genState) makeAnnouncements() {
	for _, a := range g.w.ASes {
		if a.Unannounced {
			continue
		}
		moas := g.rng.Float64() < g.cfg.MOASFrac && len(a.providers) > 0 && a.Tier == Stub
		var second *AS
		if moas {
			second = a.providers[g.rng.Intn(len(a.providers))]
		}
		for _, p := range a.Prefixes {
			for c := 0; c < g.cfg.Collectors; c++ {
				if g.rng.Float64() >= g.cfg.CollectorVisibility {
					continue
				}
				collector := fmt.Sprintf("rc%02d", c)
				g.w.Announcements = append(g.w.Announcements, bgp.Announcement{
					Collector: collector,
					Prefix:    p,
					Path:      []inet.ASN{a.ASN},
				})
				if moas && g.rng.Float64() < 0.5 {
					g.w.Announcements = append(g.w.Announcements, bgp.Announcement{
						Collector: collector,
						Prefix:    p,
						Path:      []inet.ASN{second.ASN},
					})
				}
			}
		}
	}
	// A minority of IXPs announce their LAN from the exchange ASN.
	for i, x := range g.w.IXPs {
		if i%2 == 0 {
			g.w.Announcements = append(g.w.Announcements, bgp.Announcement{
				Collector: "rc00", Prefix: x.Prefix, Path: []inet.ASN{x.ASN},
			})
		}
	}
}

func (g *genState) makeMonitors() {
	// Vantage points live in stubs, regionals and the REN (the paper's
	// Ark monitors are mostly in edge networks; Internet2 hosts one).
	var pool []*AS
	pool = append(pool, g.byTier(Stub)...)
	pool = append(pool, g.byTier(Regional)...)
	if ren := g.special[SpecialREN]; ren != nil {
		g.addMonitor(ren)
	}
	for len(g.w.Monitors) < g.cfg.Monitors && len(pool) > 0 {
		g.addMonitor(g.pick(pool))
	}
	slices.SortFunc(g.w.Monitors, func(a, b *Monitor) int { return cmp.Compare(a.Name, b.Name) })
}

func (g *genState) addMonitor(a *AS) {
	r := a.Routers[g.rng.Intn(len(a.Routers))]
	// The host-facing gateway answers from RFC 1918 space, like the
	// residential/hosting CPE most Ark monitors sit behind; private
	// first hops are excluded from neighbour sets anyway (§4.3).
	addr := inet.MustParseAddr("192.168.0.1") + inet.Addr(len(g.w.Monitors))<<8
	gw := &Iface{Addr: addr, Router: r, SpaceAS: 0}
	r.Ifaces = append(r.Ifaces, gw)
	g.w.Ifaces[addr] = gw
	m := &Monitor{
		Name:    fmt.Sprintf("mon-%03d-as%d", len(g.w.Monitors), a.ASN),
		AS:      a,
		Router:  r,
		Gateway: gw,
	}
	g.w.Monitors = append(g.w.Monitors, m)
}
