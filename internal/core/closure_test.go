package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mapit/internal/bgp"
	"mapit/internal/inet"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// The §4.4–§4.6 loop couples interface halves only through the §4.3
// neighbour sets (every election input follows a trace adjacency) and
// the §4.2 other-side pairing (InferOtherSide reads only the queried
// address's aligned /30 block). Organisations and IXP membership pool
// values, never addresses. So unioning addresses along adjacencies and
// across shared /30 blocks yields components closed under every read
// the fixpoint makes. The engine runs one loop over the whole evidence
// (DESIGN.md §12); these tests pin the locality property and check that
// fragmented and single-chain evidence give the same result at every
// worker count.

// evidence builds an Evidence directly from address strings and
// (first, second) adjacency pairs.
func evidence(addrs []string, adjs ...[2]string) *Evidence {
	ev := &Evidence{AllAddrs: make(inet.AddrSet)}
	for _, a := range addrs {
		ev.AllAddrs.Add(ip(a))
	}
	for _, adj := range adjs {
		ev.Adjacencies = append(ev.Adjacencies, trace.Adjacency{First: ip(adj[0]), Second: ip(adj[1])})
	}
	return ev
}

// partitionEvidence splits the evidence into its closed inference
// components: addresses are unioned along every adjacency and across
// every shared aligned /30 block. Adjacency endpoints outside AllAddrs
// join the union (they glue components) but are not observed addresses
// of any component. Components come largest first, minimum address
// ascending on ties, with adjacencies in the evidence's order.
func partitionEvidence(ev *Evidence) []*Evidence {
	var nodes []inet.Addr
	for a := range ev.AllAddrs {
		nodes = append(nodes, a)
	}
	for _, adj := range ev.Adjacencies {
		nodes = append(nodes, adj.First, adj.Second)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)

	parent := make(map[inet.Addr]inet.Addr, len(nodes))
	for _, a := range nodes {
		parent[a] = a
	}
	find := func(a inet.Addr) inet.Addr {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	union := func(a, b inet.Addr) { parent[find(a)] = find(b) }
	// Members of one /30 block are consecutive in address order.
	for i := 1; i < len(nodes); i++ {
		if nodes[i]>>2 == nodes[i-1]>>2 {
			union(nodes[i-1], nodes[i])
		}
	}
	for _, adj := range ev.Adjacencies {
		union(adj.First, adj.Second)
	}

	// Components are created in ascending node order, so a stable sort
	// on size alone leaves ties in minimum-address order.
	byRoot := make(map[inet.Addr]*Evidence)
	var comps []*Evidence
	for _, a := range nodes {
		r := find(a)
		c, ok := byRoot[r]
		if !ok {
			c = &Evidence{AllAddrs: make(inet.AddrSet)}
			byRoot[r] = c
			comps = append(comps, c)
		}
		if ev.AllAddrs.Contains(a) {
			c.AllAddrs.Add(a)
		}
	}
	for _, adj := range ev.Adjacencies {
		c := byRoot[find(adj.First)]
		c.Adjacencies = append(c.Adjacencies, adj)
	}
	slices.SortStableFunc(comps, func(a, b *Evidence) int {
		return cmp.Compare(len(b.AllAddrs), len(a.AllAddrs))
	})
	return comps
}

// compAddrs renders a component's observed addresses as a set for
// comparison.
func compAddrs(ev *Evidence) map[string]bool {
	m := make(map[string]bool, len(ev.AllAddrs))
	for a := range ev.AllAddrs {
		m[a.String()] = true
	}
	return m
}

func TestPartitionEvidenceClosure(t *testing.T) {
	set := func(addrs ...string) map[string]bool {
		m := make(map[string]bool, len(addrs))
		for _, a := range addrs {
			m[a] = true
		}
		return m
	}
	cases := []struct {
		name string
		ev   *Evidence
		// want lists the expected components as observed-address sets, in
		// order (largest first, min address on ties).
		want []map[string]bool
	}{
		{
			// Two adjacency chains with no shared /30 block stay apart.
			name: "disjoint-chains-split",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.4.1", "10.1.0.1", "10.1.4.1"},
				[2]string{"10.0.0.1", "10.0.4.1"},
				[2]string{"10.1.0.1", "10.1.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.4.1"),
				set("10.1.0.1", "10.1.4.1"),
			},
		},
		{
			// §4.2: two addresses of one aligned /30 block are one
			// component even with no adjacency between them —
			// InferOtherSide couples them.
			name: "block-mates-merge",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.0.2", "10.0.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.0.2"),
				set("10.0.4.1"),
			},
		},
		{
			// The phantom shared other side: .1 and .3 both claim the
			// unobserved .2 as their /30 mate, so their (otherwise
			// disjoint) neighbourhoods must merge.
			name: "phantom-other-side-merges-neighbourhoods",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.0.3", "10.8.0.1", "10.9.0.1"},
				[2]string{"10.0.0.1", "10.9.0.1"},
				[2]string{"10.0.0.3", "10.8.0.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.0.3", "10.8.0.1", "10.9.0.1"),
			},
		},
		{
			// §4.2 p2p subnet mates: a /31 pair and a /30 pair each land
			// in one component.
			name: "p2p-subnet-mates",
			ev: evidence(
				[]string{"10.0.0.0", "10.0.0.1", "10.1.0.1", "10.1.0.2"},
			),
			want: []map[string]bool{
				set("10.0.0.0", "10.0.0.1"),
				set("10.1.0.1", "10.1.0.2"),
			},
		},
		{
			// An IXP LAN address observed between two member routers
			// bridges them into one component (the multipoint fabric is
			// plain adjacency transitivity).
			name: "ixp-lan-bridges",
			ev: evidence(
				[]string{"10.0.0.1", "185.1.0.10", "10.1.0.1"},
				[2]string{"10.0.0.1", "185.1.0.10"},
				[2]string{"185.1.0.10", "10.1.0.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "185.1.0.10", "10.1.0.1"),
			},
		},
		{
			// Org-merged sibling ASes trade traffic across a shared
			// border interface; the adjacency chain keeps all their
			// addresses together.
			name: "org-siblings-one-component",
			ev: evidence(
				[]string{"20.0.0.1", "20.1.0.1", "20.2.0.1"},
				[2]string{"20.0.0.1", "20.1.0.1"},
				[2]string{"20.1.0.1", "20.2.0.1"},
			),
			want: []map[string]bool{
				set("20.0.0.1", "20.1.0.1", "20.2.0.1"),
			},
		},
		{
			// An adjacency endpoint outside the observed universe still
			// glues: 10.0.4.1 (unobserved) chains 10.0.0.1 to its block
			// mate 10.0.4.2.
			name: "external-endpoint-glues",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.4.2", "10.3.0.1"},
				[2]string{"10.0.0.1", "10.0.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.4.2"),
				set("10.3.0.1"),
			},
		},
		{
			// Order: sizes descending, minimum address ascending on
			// equal sizes.
			name: "largest-first-min-addr-ties",
			ev: evidence(
				[]string{"10.0.0.1", "10.4.0.1", "10.4.4.1", "10.2.0.1", "10.2.4.1", "10.4.8.1"},
				[2]string{"10.4.0.1", "10.4.4.1"},
				[2]string{"10.4.4.1", "10.4.8.1"},
				[2]string{"10.2.0.1", "10.2.4.1"},
			),
			want: []map[string]bool{
				set("10.4.0.1", "10.4.4.1", "10.4.8.1"),
				set("10.2.0.1", "10.2.4.1"),
				set("10.0.0.1"),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comps := partitionEvidence(tc.ev)
			if len(comps) != len(tc.want) {
				t.Fatalf("got %d components, want %d", len(comps), len(tc.want))
			}
			adjTotal := 0
			for i, comp := range comps {
				if got := compAddrs(comp); !reflect.DeepEqual(got, tc.want[i]) {
					t.Errorf("component %d: got %v, want %v", i, got, tc.want[i])
				}
				adjTotal += len(comp.Adjacencies)
				for _, adj := range comp.Adjacencies {
					for _, a := range [2]inet.Addr{adj.First, adj.Second} {
						if tc.ev.AllAddrs.Contains(a) && !comp.AllAddrs.Contains(a) {
							t.Errorf("component %d: adjacency endpoint %v crosses the boundary", i, a)
						}
					}
				}
			}
			if adjTotal != len(tc.ev.Adjacencies) {
				t.Errorf("components hold %d adjacencies, evidence has %d", adjTotal, len(tc.ev.Adjacencies))
			}
		})
	}
}

// mergedWorlds generates n small worlds from consecutive seeds and
// merges their traces and announcements into one corpus. The worlds
// share identifier pools, so the merge is a single noisy corpus with
// many disjoint fragments rather than n clean islands.
func mergedWorlds(seed int64, n int) ([]trace.Trace, []bgp.Announcement, []*topo.World) {
	var traces []trace.Trace
	var anns []bgp.Announcement
	var worlds []*topo.World
	for k := 0; k < n; k++ {
		gen := topo.SmallGenConfig()
		gen.Seed = seed + int64(k)
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.Seed = seed + 100 + int64(k)
		tc.DestsPerMonitor = 150
		traces = append(traces, w.GenTraces(tc).Traces...)
		anns = append(anns, w.Announcements...)
		worlds = append(worlds, w)
	}
	return traces, anns, worlds
}

// mergedEvidence returns the sanitised evidence of mergedWorlds plus a
// config over the merged origin table.
func mergedEvidence(seed int64, n int) (*Evidence, Config) {
	traces, anns, _ := mergedWorlds(seed, n)
	d := &trace.Dataset{Traces: traces}
	return EvidenceFrom(d.Sanitize()), Config{IP2AS: bgp.NewTable(anns), F: 0.5}
}

// TestComponentElectionInputsMatchGlobal is the locality quickcheck: for
// every observed address of every component, the run state built from
// the component alone must present exactly the election inputs the
// state built from the whole evidence does — neighbour sets, other
// side, base mapping, IXP flag. If any input crossed a component
// boundary the restriction would differ.
func TestComponentElectionInputsMatchGlobal(t *testing.T) {
	ev, cfg := mergedEvidence(11, 2)
	cfg.freeze()
	global := newRunState(&cfg, ev)
	comps := partitionEvidence(ev)
	if len(comps) < 2 {
		t.Fatalf("merged evidence produced %d components, want >= 2", len(comps))
	}
	for ci, comp := range comps {
		st := newRunState(&cfg, comp)
		for _, a := range st.addrs {
			if !reflect.DeepEqual(st.nbrF[a], global.nbrF[a]) {
				t.Fatalf("component %d: N_F(%v) diverges from global", ci, a)
			}
			if !reflect.DeepEqual(st.nbrB[a], global.nbrB[a]) {
				t.Fatalf("component %d: N_B(%v) diverges from global", ci, a)
			}
			if st.otherSide[a] != global.otherSide[a] {
				t.Fatalf("component %d: otherSide(%v) = %v, global %v",
					ci, a, st.otherSide[a], global.otherSide[a])
			}
			if st.baseAS[a] != global.baseAS[a] {
				t.Fatalf("component %d: baseAS(%v) diverges from global", ci, a)
			}
			if st.ixpAddr[a] != global.ixpAddr[a] {
				t.Fatalf("component %d: ixpAddr(%v) diverges from global", ci, a)
			}
		}
	}
}

// assertSameResult compares the differential-visible fields of two
// Results (Audit is observability, not output).
func assertSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Inferences, b.Inferences) {
		t.Errorf("%s: inferences diverge (%d vs %d)", label, len(a.Inferences), len(b.Inferences))
	}
	if a.Diag != b.Diag {
		t.Errorf("%s: diagnostics diverge:\n  %+v\n  %+v", label, a.Diag, b.Diag)
	}
	if !reflect.DeepEqual(a.ProbeSuggestions, b.ProbeSuggestions) {
		t.Errorf("%s: probe suggestions diverge", label)
	}
}

// runWorkers runs the evidence at each worker count and requires every
// Result to equal the Workers=1 run and to leave the deprecated
// Result.Partition unset.
func runWorkers(t *testing.T, ev *Evidence, cfg Config, workers ...int) *Result {
	t.Helper()
	cfg.Workers = 1
	want, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		c := cfg
		c.Workers = w
		r, err := RunEvidence(ev, c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition != nil {
			t.Errorf("workers=%d: Result.Partition = %+v, want nil", w, r.Partition)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), want, r)
	}
	return want
}

// TestPartitionSingleGiantFallback is the shape that made a component
// split useless: evidence that is one connected chain. It is one
// component, and the engine gives the same result at every worker count.
func TestPartitionSingleGiantFallback(t *testing.T) {
	var addrs []string
	var adjs [][2]string
	for i := 0; i < 40; i++ {
		addrs = append(addrs, fmt.Sprintf("10.%d.0.1", i))
		if i > 0 {
			adjs = append(adjs, [2]string{addrs[i-1], addrs[i]})
		}
	}
	ev := evidence(addrs, adjs...)
	if n := len(partitionEvidence(ev)); n != 1 {
		t.Fatalf("chain evidence split into %d components, want 1", n)
	}
	cfg := Config{IP2AS: table("10.0.0.0/8=100"), F: 0.5}
	runWorkers(t, ev, cfg, 2, 4)
}

// TestPartitionedMultiIslandByteIdentical runs a merged multi-world
// corpus — many disjoint components — at several worker counts and
// requires the results to be byte-identical.
func TestPartitionedMultiIslandByteIdentical(t *testing.T) {
	ev, cfg := mergedEvidence(3, 2)
	if n := len(partitionEvidence(ev)); n < 2 {
		t.Fatalf("merged evidence produced %d components, want >= 2", n)
	}
	runWorkers(t, ev, cfg, 2, 4)
}

// TestPartitionedStubAndProbeMerge drives the engine with the full
// input set — orgs, relationships, IXP directory — over a merged corpus,
// so the stub heuristic and probe suggestions run under the parallel
// scans too.
func TestPartitionedStubAndProbeMerge(t *testing.T) {
	traces, anns, worlds := mergedWorlds(21, 2)
	// Orgs/Rels/IXP directories cannot be merged across worlds, so this
	// test runs with the first world's datasets: wrong values for the
	// second world's ASes are fine — every run sees the same values.
	orgs, rels, dir := worlds[0].PublicInputs(topo.DefaultNoiseConfig())
	d := &trace.Dataset{Traces: traces}
	ev := EvidenceFrom(d.Sanitize())
	cfg := Config{IP2AS: bgp.NewTable(anns), Orgs: orgs, Rels: rels, IXP: dir, F: 0.5}

	r := runWorkers(t, ev, cfg, 4)
	if r.Diag.StubInferences == 0 {
		t.Log("note: corpus produced no stub inferences (stub path still compared)")
	}
}
