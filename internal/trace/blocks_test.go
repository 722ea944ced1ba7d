package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"mapit/internal/inet"
)

// genDataset builds a deterministic corpus with null hops, quoted-TTL-0
// hops, immediate repeats and interface cycles, so sanitisation has real
// work to do in every chunk.
func genDataset(n int) *Dataset {
	rng := rand.New(rand.NewSource(7))
	addr := func() inet.Addr { return inet.Addr(0x08000000 + rng.Intn(1<<14)) }
	d := &Dataset{Traces: make([]Trace, 0, n)}
	for i := 0; i < n; i++ {
		hops := make([]Hop, 0, 8)
		for j := 0; j < 2+rng.Intn(6); j++ {
			h := Hop{Addr: addr(), QuotedTTL: 1}
			switch rng.Intn(10) {
			case 0:
				h.Addr = 0
			case 1:
				h.QuotedTTL = 0
			case 2:
				if len(hops) > 1 {
					h.Addr = hops[0].Addr
				}
			}
			hops = append(hops, h)
		}
		d.Traces = append(d.Traces, Trace{
			Monitor: fmt.Sprintf("monitor-%02d", rng.Intn(20)),
			Dst:     addr(),
			Hops:    hops,
		})
	}
	return d
}

func sameDataset(t *testing.T, want, got *Dataset, label string) {
	t.Helper()
	if len(want.Traces) != len(got.Traces) {
		t.Fatalf("%s: %d traces, want %d", label, len(got.Traces), len(want.Traces))
	}
	for i := range want.Traces {
		a, b := want.Traces[i], got.Traces[i]
		if a.Monitor != b.Monitor || a.Dst != b.Dst || a.Time != b.Time || !reflect.DeepEqual(a.Hops, b.Hops) {
			t.Fatalf("%s: trace %d differs: %+v vs %+v", label, i, a, b)
		}
	}
}

// The block format (v3) must survive a round trip through both readers:
// the one-shot reader and the streaming reader, each yielding the exact
// input dataset. Small block sizes
// force multiple blocks so the per-block monitor-table reset is
// exercised.
func TestBinaryBlocksRoundTrip(t *testing.T) {
	d := genDataset(500)
	for _, perBlock := range []int{1, 7, 64, 0 /* default */} {
		var buf bytes.Buffer
		if err := WriteBinaryBlocks(&buf, d, perBlock); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()

		back, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, d, back, fmt.Sprintf("serial perBlock=%d", perBlock))

		r, err := NewBinaryReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var streamed Dataset
		for {
			tr, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			streamed.Traces = append(streamed.Traces, tr)
		}
		sameDataset(t, d, &streamed, fmt.Sprintf("stream perBlock=%d", perBlock))
	}
}

// Corrupted block streams must fail loudly, not hang or panic.
func TestBinaryBlocksErrors(t *testing.T) {
	d := genDataset(50)
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, 16); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncated mid-block.
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 6} {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Corrupted record kind at the first block boundary.
	bad := bytes.Clone(raw)
	bad[5] = 0xee
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt record kind not detected")
	}
}
