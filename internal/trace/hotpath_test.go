package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mapit/internal/inet"
)

// Tests for the allocation-free ingest hot path: the map-free HasCycle,
// the in-place block decoder and its differential oracle against the
// flat v2 streaming reader.

// hasCycleRef is the map formulation of HasCycle: one map from each
// address to its latest responding position. The property test holds
// HasCycle to it on both sides of cycleStackLen.
func hasCycleRef(t Trace) bool {
	lastSeen := make(map[inet.Addr]int, len(t.Hops))
	respIdx := 0
	for _, h := range t.Hops {
		if !h.Responded() {
			continue
		}
		if prev, ok := lastSeen[h.Addr]; ok && respIdx-prev > 1 {
			return true
		}
		lastSeen[h.Addr] = respIdx
		respIdx++
	}
	return false
}

// randomCycleTrace draws a trace of 0 to maxResp responders over a small
// address pool, salted with null hops and immediate repeats, so cycles,
// repeats and clean paths all occur on both sides of cycleStackLen.
func randomCycleTrace(rng *rand.Rand, maxResp int) Trace {
	resp := rng.Intn(maxResp + 1)
	// A pool a little larger than the trace keeps cycles common but not
	// certain; a huge pool makes long clean traces.
	pool := 1 + resp + rng.Intn(4*resp+2)
	if rng.Intn(4) == 0 {
		pool = 1 << 20
	}
	var hops []Hop
	var last inet.Addr
	for n := 0; n < resp; {
		switch rng.Intn(8) {
		case 0:
			hops = append(hops, Hop{QuotedTTL: 1}) // null hop
			continue
		case 1:
			if last != 0 {
				hops = append(hops, Hop{Addr: last, QuotedTTL: 1}) // immediate repeat
				n++
				continue
			}
		}
		last = inet.Addr(0x0a000001 + rng.Intn(pool))
		hops = append(hops, Hop{Addr: last, QuotedTTL: 1})
		n++
	}
	return Trace{Monitor: "m", Dst: 1, Hops: hops}
}

func TestHasCycleMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cycles, long int
	for i := 0; i < 20000; i++ {
		tr := randomCycleTrace(rng, 200)
		want := hasCycleRef(tr)
		if got := HasCycle(tr); got != want {
			t.Fatalf("trace %d (%d hops): HasCycle = %v, reference %v", i, len(tr.Hops), got, want)
		}
		if want {
			cycles++
		}
		resp := 0
		for _, h := range tr.Hops {
			if h.Responded() {
				resp++
			}
		}
		if resp > cycleStackLen {
			long++
		}
	}
	// The generator must reach both outcomes and the map fallback.
	if cycles < 1000 || cycles > 19000 || long < 1000 {
		t.Fatalf("generator coverage: %d cycles, %d traces over %d responders", cycles, long, cycleStackLen)
	}
}

// hopsNoCycle builds a trace of n distinct responders: no cycle, so
// HasCycle must look at every one.
func hopsNoCycle(n int) Trace {
	addrs := make([]inet.Addr, n)
	for i := range addrs {
		addrs[i] = inet.Addr(0x0a000001 + i)
	}
	return NewTrace("m", 1, addrs...)
}

// TestHasCycleLongTraceNotQuadratic times clean traces at the 1024-hop
// decode cap against ones of 128 responders. Eight times the hops may
// cost about eight times the time (linear) or a little more (n log n);
// a quadratic scan would cost 64 times. The bound sits between, and the
// minimum of many timings keeps scheduler noise out.
func TestHasCycleLongTraceNotQuadratic(t *testing.T) {
	short, long := hopsNoCycle(128), hopsNoCycle(maxHopCount)
	if HasCycle(short) || HasCycle(long) {
		t.Fatal("distinct responders reported as a cycle")
	}
	minTime := func(tr Trace) time.Duration {
		best := time.Duration(1 << 62)
		for trial := 0; trial < 15; trial++ {
			start := time.Now()
			for i := 0; i < 20; i++ {
				HasCycle(tr)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	ts, tl := minTime(short), minTime(long)
	ratio := float64(tl) / float64(ts)
	t.Logf("1024 responders: %.1fx the time of 128", ratio)
	if ratio > 24 {
		t.Fatalf("1024 responders took %.1fx the time of 128 (%v vs %v): want about 8x", ratio, tl, ts)
	}
}

// TestSanitizeCleanTraceAllocs gates the per-trace sanitise path: a
// clean trace of cycleStackLen responders costs no allocation in
// HasCycle or Sanitize.
func TestSanitizeCleanTraceAllocs(t *testing.T) {
	tr := hopsNoCycle(cycleStackLen)
	if n := testing.AllocsPerRun(100, func() { HasCycle(tr) }); n != 0 {
		t.Errorf("HasCycle on %d responders: %v allocs, want 0", cycleStackLen, n)
	}
	if n := testing.AllocsPerRun(100, func() { Sanitize(tr) }); n != 0 {
		t.Errorf("Sanitize on %d responders: %v allocs, want 0", cycleStackLen, n)
	}
}

// allocBlockMonitors is the number of monitors in allocBlock.
const allocBlockMonitors = 4

// allocBlock encodes a fixed 256-trace block payload over
// allocBlockMonitors monitors.
func allocBlock(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	d := &Dataset{}
	for i := 0; i < 256; i++ {
		addrs := make([]inet.Addr, 4+rng.Intn(12))
		for j := range addrs {
			if rng.Intn(6) > 0 {
				addrs[j] = inet.Addr(0x0a000000 + rng.Intn(1<<16))
			}
		}
		d.Traces = append(d.Traces, NewTrace(fmt.Sprintf("mon-%d", i%allocBlockMonitors), inet.Addr(i+1), addrs...))
	}
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, len(d.Traces)); err != nil {
		t.Fatal(err)
	}
	frames := walkFrames(t, buf.Bytes())
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1", len(frames))
	}
	return buf.Bytes()[frames[0].payloadOff : frames[0].payloadOff+frames[0].payloadLen]
}

// TestDecodeBlockPayloadAllocs pins the allocations of one block decode
// on a warm decoder: the trace slice, the hop slab and one string per
// monitor definition — none per trace.
func TestDecodeBlockPayloadAllocs(t *testing.T) {
	payload := allocBlock(t)
	var dec blockDecoder
	var traces []Trace
	var cerr *CorruptError
	n := testing.AllocsPerRun(50, func() {
		traces, cerr = dec.decodeBlockPayload(nil, payload, 0, 0, 256)
	})
	if cerr != nil || len(traces) != 256 {
		t.Fatalf("decode: %d traces, err %v", len(traces), cerr)
	}
	if want := float64(2 + allocBlockMonitors); n != want {
		t.Errorf("decodeBlockPayload on a 256-trace block: %v allocs, want %v", n, want)
	}
}

// TestDecodeBlockPayloadHopsDoNotAlias checks the slab invariant: every
// trace's Hops has cap == len, so appending to one trace's hops cannot
// write into the next trace's.
func TestDecodeBlockPayloadHopsDoNotAlias(t *testing.T) {
	payload := allocBlock(t)
	var dec blockDecoder
	traces, cerr := dec.decodeBlockPayload(nil, payload, 0, 0, 256)
	if cerr != nil {
		t.Fatal(cerr)
	}
	for i, tr := range traces {
		if cap(tr.Hops) != len(tr.Hops) {
			t.Fatalf("trace %d: cap(Hops) = %d, len %d", i, cap(tr.Hops), len(tr.Hops))
		}
	}
	want := append([]Hop(nil), traces[1].Hops...)
	traces[0].Hops = append(traces[0].Hops, Hop{Addr: 0xdeadbeef, QuotedTTL: 7})
	if !reflect.DeepEqual(traces[1].Hops, want) {
		t.Fatalf("appending to trace 0 changed trace 1: %v, want %v", traces[1].Hops, want)
	}
	// A reused decoder hands out a fresh slab: the first decode's traces
	// survive the second.
	if _, cerr := dec.decodeBlockPayload(nil, payload, 0, 0, 256); cerr != nil {
		t.Fatal(cerr)
	}
	if !reflect.DeepEqual(traces[1].Hops, want) {
		t.Fatal("a second decode overwrote the first decode's hops")
	}
}

// checkBlockPayloadOracle decodes payload in place and with a flat v2
// BinaryReader over the same record stream. Behind the 5-byte v2 magic
// the reader's offsets are the payload's plus 5, and it has no block, so
// decodeBlockPayload runs with base 5 and block -1: both must yield
// deep-equal traces or an identical *CorruptError.
func checkBlockPayloadOracle(t *testing.T, payload []byte) {
	t.Helper()
	var dec blockDecoder
	got, gotErr := dec.decodeBlockPayload(nil, payload, int64(len(binaryMagic)), -1, 8)

	rd, err := NewBinaryReader(io.MultiReader(bytes.NewReader(binaryMagic[:]), bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	var want []Trace
	var wantErr *CorruptError
	for {
		tr, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.As(err, &wantErr) {
				t.Fatalf("v2 reader: untyped error %T: %v", err, err)
			}
			break
		}
		want = append(want, tr)
	}

	if wantErr != nil {
		if gotErr == nil {
			t.Fatalf("v2 reader fails with %v; in-place decode returned %d traces", wantErr, len(got))
		}
		if gotErr.Class != wantErr.Class || gotErr.Kind != wantErr.Kind || gotErr.Block != wantErr.Block ||
			gotErr.Offset != wantErr.Offset || gotErr.Error() != wantErr.Error() {
			t.Fatalf("errors differ:\n in place: %+v %q\n v2:       %+v %q", *gotErr, gotErr, *wantErr, wantErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("in-place decode fails with %v; v2 reader decodes %d traces", gotErr, len(want))
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traces differ: %d in place, %d from the v2 reader", len(got), len(want))
	}
}

// blockPayloadSeeds lifts every block payload out of the fault-injection
// corpora, plus a truncation and a bit flip of each.
func blockPayloadSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, c := range buildFaultCorpora(t) {
		if c.name == "v2" {
			continue
		}
		for i, f := range walkFrames(t, c.raw) {
			p := c.raw[f.payloadOff : f.payloadOff+f.payloadLen]
			flipped := bytes.Clone(p)
			flipped[(i*37)%len(flipped)] ^= 1 << (i % 8)
			seeds = append(seeds, p, p[:len(p)/2], flipped)
		}
	}
	return seeds
}

// FuzzBlockPayload is the differential oracle for the in-place block
// decoder: any payload bytes must decode exactly as the flat v2 reader
// decodes them — same traces, or the same error down to its offset and
// message.
func FuzzBlockPayload(f *testing.F) {
	for _, s := range blockPayloadSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0x80})                                                // varint cut after a continuation byte
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0xff}, 10)...))           // varint overflow by length
	f.Add(append(append([]byte{0}, bytes.Repeat([]byte{0xff}, 9)...), 2)) // overflow in the tenth byte
	f.Add([]byte{0, 1, 'm', 1, 0, 9, 9, 9, 9, 0x88, 0x08})                // hop count over the cap
	f.Add([]byte{0, 1, 'm', 1, 0, 9, 9, 9, 9, 2, 3, 1})                   // hop address cut short
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkBlockPayloadOracle(t, payload)
	})
}

// TestBlockPayloadOracleMutations runs the oracle over random
// truncations and byte corruptions of real payloads on every plain test
// run, beyond the fuzz seeds.
func TestBlockPayloadOracleMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeds := blockPayloadSeeds(t)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		p := bytes.Clone(seeds[rng.Intn(len(seeds))])
		for k := rng.Intn(3); k >= 0 && len(p) > 0; k-- {
			p[rng.Intn(len(p))] = byte(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			p = p[:rng.Intn(len(p)+1)]
		}
		checkBlockPayloadOracle(t, p)
	}
}
