package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

// maxLookupAddrs caps how many addresses one /v1/lookup may resolve.
const maxLookupAddrs = 256

// writeJSON encodes v with the same two-space indentation the CLI uses,
// so /v1/lookup bodies are byte-identical to `mapit -lookup` output.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone; nothing useful to do with the error
}

type errorBody struct {
	Error string `json:"error"`
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// etagFor renders (with one-entry caching — the version only moves on
// ingest) the strong validator for a snapshot version.
func (s *Server) etagFor(version uint64) string {
	if e := s.etag.Load(); e != nil && e.version == version {
		return e.tag
	}
	tag := `"v` + strconv.FormatUint(version, 10) + `"`
	s.etag.Store(&etagEntry{version: version, tag: tag})
	return tag
}

// etagMatches evaluates an If-None-Match header against the current
// strong ETag.
func etagMatches(header, etag string) bool {
	if header == etag || header == "*" {
		return true
	}
	if !strings.ContainsAny(header, ",W ") {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// snapshotFor loads the published snapshot for a data endpoint, stamps
// the version ETag, and short-circuits the not-ready (503) and
// conditional-request (304) cases. ok=false means the response has
// already been written.
func (s *Server) snapshotFor(w http.ResponseWriter, r *http.Request) (snap *snapshot.Snapshot, version uint64, ok bool) {
	snap, version = s.handle.LoadVersion()
	if snap == nil {
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return nil, 0, false
	}
	etag := s.etagFor(version)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, 0, false
	}
	return snap, version, true
}

// pageParams resolves limit and cursor for a paginated endpoint.
// ok=false means an error response has been written (400 for a bad
// limit or malformed cursor, 410 for a cursor minted against a
// superseded snapshot).
func (s *Server) pageParams(w http.ResponseWriter, q url.Values, version uint64) (limit, offset int, ok bool) {
	limit = s.opt.PageSize
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 || n > s.opt.MaxPageSize {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("limit must be an integer in 1..%d", s.opt.MaxPageSize))
			return 0, 0, false
		}
		limit = n
	}
	if tok := q.Get("cursor"); tok != "" {
		cv, off, err := decodeCursor(tok)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "malformed cursor")
			return 0, 0, false
		}
		if cv != version {
			jsonError(w, http.StatusGone, "cursor expired: a newer snapshot has been published")
			return 0, 0, false
		}
		offset = off
	}
	return limit, offset, true
}

// parseAddrParams flattens repeated and comma-separated addr values.
func parseAddrParams(params []string) ([]inet.Addr, error) {
	var addrs []inet.Addr
	for _, p := range params {
		for _, f := range strings.Split(p, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			a, err := inet.ParseAddr(f)
			if err != nil {
				return nil, fmt.Errorf("bad addr %q", f)
			}
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("missing addr parameter")
	}
	if len(addrs) > maxLookupAddrs {
		return nil, fmt.Errorf("too many addresses (max %d per request)", maxLookupAddrs)
	}
	return addrs, nil
}

// parseASParams flattens repeated and comma-separated as values; at
// most two are meaningful (a link endpoint pair).
func parseASParams(params []string) ([]inet.ASN, error) {
	var ases []inet.ASN
	for _, p := range params {
		for _, f := range strings.Split(p, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			a, err := inet.ParseASN(f)
			if err != nil {
				return nil, fmt.Errorf("bad as %q", f)
			}
			ases = append(ases, a)
		}
	}
	if len(ases) > 2 {
		return nil, errors.New("at most two as parameters")
	}
	return ases, nil
}

// handleLookup answers GET /v1/lookup?addr=A[,B][&addr=C] with the
// exact JSON array `mapit -lookup` prints.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	snap, _, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	addrs, err := parseAddrParams(r.URL.Query()["addr"])
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	recs := make([]LookupRecord, 0, len(addrs))
	for _, a := range addrs {
		recs = append(recs, NewLookupRecord(snap, a))
	}
	writeJSON(w, http.StatusOK, recs)
}

type linksResponse struct {
	Version    uint64       `json:"version"`
	Links      []LinkRecord `json:"links"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// handleLinks answers GET /v1/links[?as=A[&as=B]] — the full link
// enumeration, one AS's links, or one AS pair — with cursor pagination.
func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	snap, version, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	ases, err := parseASParams(q["as"])
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit, offset, ok := s.pageParams(w, q, version)
	if !ok {
		return
	}
	resp := linksResponse{Version: version, Links: []LinkRecord{}}
	if len(ases) == 2 {
		// A single pair needs no walk: at most one record, on page one.
		if offset == 0 {
			if l := snap.Links(ases[0], ases[1]); l.Len() > 0 {
				resp.Links = append(resp.Links, NewLinkRecordView(ases[0], ases[1], l))
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	match := func(a, b inet.ASN) bool { return true }
	if len(ases) == 1 {
		want := ases[0]
		match = func(a, b inet.ASN) bool { return a == want || b == want }
	}
	seen := 0
	snap.EachLink(func(a, b inet.ASN, l snapshot.Link) bool {
		if !match(a, b) {
			return true
		}
		if seen < offset {
			seen++
			return true
		}
		if len(resp.Links) == limit {
			resp.NextCursor = encodeCursor(version, seen)
			return false
		}
		resp.Links = append(resp.Links, NewLinkRecordView(a, b, l))
		seen++
		return true
	})
	writeJSON(w, http.StatusOK, resp)
}

type monitorResponse struct {
	Version uint64 `json:"version"`
	MonitorRecord
	NextCursor string `json:"next_cursor,omitempty"`
}

// handleMonitor answers GET /v1/monitors/{monitor}/evidence with the
// vantage point's contributed adjacencies, cursor-paginated.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	snap, version, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	name := r.PathValue("monitor")
	mon, found := snap.MonitorEvidence(name)
	if !found {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown monitor %q", name))
		return
	}
	limit, offset, ok := s.pageParams(w, r.URL.Query(), version)
	if !ok {
		return
	}
	resp := monitorResponse{
		Version: version,
		MonitorRecord: MonitorRecord{
			Monitor:     name,
			Traces:      mon.Traces(),
			Adjacencies: []AdjacencyRecord{},
		},
	}
	for i := offset; i < mon.Len(); i++ {
		if len(resp.Adjacencies) == limit {
			resp.NextCursor = encodeCursor(version, i)
			break
		}
		adj := mon.At(i)
		resp.Adjacencies = append(resp.Adjacencies, AdjacencyRecord{
			First:  adj.First.String(),
			Second: adj.Second.String(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type healthResponse struct {
	Status  string  `json:"status"`
	Ready   bool    `json:"ready"`
	Version uint64  `json:"version"`
	UptimeS float64 `json:"uptime_s"`
}

// handleHealthz answers GET /v1/healthz. Always 200 while the process
// serves; Ready reports whether a snapshot has been published.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap, version := s.handle.LoadVersion()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:  "ok",
		Ready:   snap != nil,
		Version: version,
		UptimeS: time.Since(s.started).Seconds(),
	})
}

type statsResponse struct {
	Version    uint64                `json:"version"`
	Ready      bool                  `json:"ready"`
	UptimeS    float64               `json:"uptime_s"`
	Ingests    int64                 `json:"ingests"`
	Traces     int                   `json:"traces"`
	Inferences int                   `json:"inferences"`
	Addresses  int                   `json:"addresses"`
	Links      int                   `json:"links"`
	Monitors   int                   `json:"monitors"`
	Diag       *core.Diagnostics     `json:"diag,omitempty"`
	Decode     *trace.DecodeStats    `json:"decode,omitempty"`
	Spill      *core.SpillStats      `json:"spill,omitempty"`
	Window     *core.WindowStats     `json:"window,omitempty"`
	HTTP       map[string]RouteStats `json:"http"`
}

// handleStats answers GET /v1/stats: snapshot dimensions, the last
// run's diagnostics (including decode and spill health) and per-route
// HTTP counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap, version := s.handle.LoadVersion()
	resp := statsResponse{
		Version: version,
		Ready:   snap != nil,
		UptimeS: time.Since(s.started).Seconds(),
		Ingests: s.ingests.Load(),
		HTTP:    s.metrics.report(),
	}
	if snap != nil {
		resp.Addresses = snap.AddrCount()
		resp.Links = snap.LinkCount()
		resp.Monitors = snap.MonitorCount()
	}
	if ri := s.run.Load(); ri != nil {
		resp.Traces = ri.traces
		resp.Inferences = ri.inferences
		diag := ri.diag
		resp.Diag = &diag
		decode := diag.Decode
		resp.Decode = &decode
		spill := diag.Spill
		resp.Spill = &spill
	}
	resp.Window = s.WindowStats()
	writeJSON(w, http.StatusOK, resp)
}

// handleAdvance answers POST /v1/advance?now=N on sliding-window
// servers: the window's right edge moves to N seconds, expired
// evidence drops out, and the republished snapshot's summary is
// returned. Moving backwards is a 400.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	now, err := strconv.ParseInt(r.URL.Query().Get("now"), 10, 64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "missing or malformed ?now=<seconds>")
		return
	}
	sum, err := s.Advance(now)
	if err != nil {
		switch {
		case errors.Is(err, errNotWindowed):
			jsonError(w, http.StatusConflict, err.Error())
		case errors.Is(err, errBadCorpus):
			jsonError(w, http.StatusBadRequest, err.Error())
		default:
			jsonError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleIngest answers POST /v1/ingest: the body is one corpus batch
// (MTRC v2/v3 binary, JSONL, or text). On success the new snapshot is
// already published and the summary reports its version.
//
// The body is spooled to completion before a byte of it is decoded.
// The permissive binary decoder deliberately survives truncation (it
// skips damaged tails and reports success), and the server's collector
// is cumulative — traces it accepts cannot be taken back. Decoding
// while reading would therefore fold the intact prefix of an
// over-limit body into the evidence even though the request is
// answered 413, and the clipped batch would ride along with the next
// successful publish. Spooling first means a MaxBytesReader trip is a
// clean rejection: the collector never sees the batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tooLarge := func() {
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", s.opt.MaxBodyBytes))
	}
	if r.ContentLength > s.opt.MaxBodyBytes {
		tooLarge() // declared oversized: reject without reading
		return
	}
	body, cleanup, err := spoolBody(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	defer cleanup()
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			tooLarge()
		} else {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		}
		return
	}
	sum, err := s.Ingest(body)
	if err != nil {
		if errors.Is(err, errBadCorpus) {
			jsonError(w, http.StatusBadRequest, err.Error())
		} else {
			jsonError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, sum)
}
