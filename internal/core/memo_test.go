package core

import (
	"testing"

	"mapit/internal/inet"
)

// countingIP2AS wraps a map-backed resolver and counts source hits.
type countingIP2AS struct {
	m     map[inet.Addr]inet.ASN
	calls int
}

func (c *countingIP2AS) Lookup(a inet.Addr) (inet.ASN, bool) {
	c.calls++
	asn, ok := c.m[a]
	return asn, ok
}

func TestMemoIP2AS(t *testing.T) {
	src := &countingIP2AS{m: map[inet.Addr]inet.ASN{
		inet.MustParseAddr("10.0.0.1"): 100,
		inet.MustParseAddr("10.0.0.2"): 200,
	}}
	memo := newMemoIP2AS(src)
	probe := func(s string, wantASN inet.ASN, wantOK bool) {
		t.Helper()
		asn, ok := memo.Lookup(inet.MustParseAddr(s))
		if asn != wantASN || ok != wantOK {
			t.Errorf("Lookup(%s) = %v, %v; want %v, %v", s, asn, ok, wantASN, wantOK)
		}
	}
	// Hits, misses, and repeats of both.
	probe("10.0.0.1", 100, true)
	probe("9.9.9.9", 0, false)
	probe("10.0.0.1", 100, true)
	probe("9.9.9.9", 0, false) // the miss must be cached too
	probe("10.0.0.2", 200, true)
	if n := src.calls; n != 3 {
		t.Errorf("source consulted %d times; want 3 (one per distinct address)", n)
	}
}

// TestMemoIP2ASExported exercises the exported constructor the
// baselines and verifiers use.
func TestMemoIP2ASExported(t *testing.T) {
	src := &countingIP2AS{m: map[inet.Addr]inet.ASN{inet.MustParseAddr("10.0.0.1"): 7}}
	m := MemoIP2AS(src)
	for i := 0; i < 10; i++ {
		if asn, ok := m.Lookup(inet.MustParseAddr("10.0.0.1")); !ok || asn != 7 {
			t.Fatalf("Lookup = %v, %v", asn, ok)
		}
	}
	if n := src.calls; n != 1 {
		t.Errorf("source consulted %d times; want 1", n)
	}
}
