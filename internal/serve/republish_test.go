package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/snapshot"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// encodeSweep encodes one traceroute sweep over w as an MTRC v3 corpus.
func encodeSweep(t *testing.T, w *topo.World, seed int64, dests int) []byte {
	t.Helper()
	tc := topo.DefaultTraceConfig()
	tc.Seed, tc.DestsPerMonitor = seed, dests
	var buf bytes.Buffer
	bw, err := trace.NewBlockWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.StreamTraces(tc, func(tr trace.Trace) bool {
		err = bw.Add(tr)
		return err == nil
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepublishMatchesOneFinish: a server that publishes after its
// startup corpus and after each of k ingest batches must answer
// exactly as a snapshot built from one Ingestor that finishes once,
// after the same batches. The collector compacts its runs at every
// Finish, so this holds only if that compaction loses and duplicates
// nothing. Every /v1/lookup, /v1/links page and
// /v1/monitors/{m}/evidence page must be byte-equal on the two sides.
func TestRepublishMatchesOneFinish(t *testing.T) {
	w := topo.Generate(topo.SmallGenConfig())
	orgs, rels, ixps := w.PublicInputs(topo.DefaultNoiseConfig())
	cfg := core.Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: ixps, F: 0.5, Workers: 2}
	corpora := [][]byte{encodeSweep(t, w, 1, 200)}
	for k := int64(0); k < 4; k++ {
		corpora = append(corpora, encodeSweep(t, w, 100+k, 60))
	}

	srv, err := NewServer(Options{Config: cfg, Workers: 2, PageSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range corpora {
		if _, err := srv.Ingest(bytes.NewReader(c)); err != nil {
			t.Fatal(err)
		}
	}

	g := core.NewIngestor(core.IngestOptions{Workers: 2, TrackMonitors: true})
	defer g.Close()
	for _, c := range corpora {
		if _, err := g.Ingest(bytes.NewReader(c)); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inferences) == 0 {
		t.Fatal("the corpus yields no inferences; the lookups are vacuous")
	}
	ref, err := NewServer(Options{Config: cfg, Workers: 2, PageSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// Publish the reference under the same version, which bodies and
	// cursors carry.
	snap := snapshot.Build(res, ev)
	for ref.Version() < srv.Version() {
		ref.handle.Swap(snap)
	}

	get := func(s *Server, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	// same fetches target from both servers and returns its body once
	// they agree.
	same := func(target string) []byte {
		t.Helper()
		got, want := get(srv, target), get(ref, target)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, reference %d", target, got.Code, want.Code)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET %s: republished body differs from the one-Finish body:\n%s\nvs\n%s",
				target, got.Body.Bytes(), want.Body.Bytes())
		}
		return got.Body.Bytes()
	}
	// walk fetches every page of a paginated route and returns how many
	// pages it took.
	walk := func(route string) int {
		t.Helper()
		pages, cursor := 0, ""
		for {
			target := route
			if cursor != "" {
				target += "?cursor=" + cursor
			}
			var page struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(same(target), &page); err != nil {
				t.Fatal(err)
			}
			pages++
			if page.NextCursor == "" {
				return pages
			}
			cursor = page.NextCursor
		}
	}

	// Every address the corpus holds, and one it does not.
	addrs := make([]inet.Addr, 0, len(ev.AllAddrs)+1)
	for a := range ev.AllAddrs {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	addrs = append(addrs, inet.MustParseAddr("198.18.0.1"))
	for lo := 0; lo < len(addrs); lo += 64 {
		var names []string
		for _, a := range addrs[lo:min(lo+64, len(addrs))] {
			names = append(names, a.String())
		}
		same("/v1/lookup?addr=" + strings.Join(names, ","))
	}

	if pages := walk("/v1/links"); pages < 2 {
		t.Fatalf("/v1/links took %d page; the walk does not cross a cursor", pages)
	}
	if len(ev.Monitors) == 0 {
		t.Fatal("no monitor attribution; the monitor walk is vacuous")
	}
	for _, m := range ev.Monitors {
		walk("/v1/monitors/" + m.Monitor + "/evidence")
	}
}
