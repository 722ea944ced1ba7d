// Package core implements the MAP-IT algorithm (Marder & Smith, IMC
// 2016): multipass passive inference of the interface addresses used on
// point-to-point inter-AS links, and of the pair of ASes each link
// connects, from sanitised traceroute data plus a BGP-derived IP-to-AS
// mapping.
//
// The package follows the paper's structure: §4.2 other sides, §4.3
// neighbour sets, §4.4 add step (direct inferences, other-side updates,
// contradiction fixes, inverse-inference resolution), §4.5 remove step,
// §4.6 repeated-state convergence, §4.8 stub heuristic.
package core

import (
	"cmp"

	"mapit/internal/inet"
)

// Direction selects one of an interface's two halves (§3.2).
type Direction uint8

const (
	// Forward is the half that sees only the forward neighbours N_F.
	Forward Direction = iota
	// Backward is the half that sees only the backward neighbours N_B.
	Backward
)

// String names the direction.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Opposite returns the other direction.
func (d Direction) Opposite() Direction { return 1 - d }

// Half identifies one interface half: an interface address looking in one
// direction. All algorithm state — IP2AS overrides, direct and indirect
// inference records — is kept per half, never per bare address: §4.4.1
// is explicit that an update to one half must not leak to the other.
type Half struct {
	Addr inet.Addr
	Dir  Direction
}

// String renders the half in the paper's subscript notation, e.g.
// "198.71.46.180_f".
func (h Half) String() string {
	if h.Dir == Forward {
		return h.Addr.String() + "_f"
	}
	return h.Addr.String() + "_b"
}

// Opposite returns the same interface looking the other way.
func (h Half) Opposite() Half { return Half{Addr: h.Addr, Dir: h.Dir.Opposite()} }

// halfSlot packs an address index and a direction into the dense half
// index the intern index and inference columns are keyed by (see
// internIndex).
// Sorting slots sorts by (address, direction), matching halfCmp.
func halfSlot(addrIdx int32, d Direction) int32 { return addrIdx*2 + int32(d) }

// halfLess orders halves deterministically (address, then forward before
// backward); every pass iterates in this order so runs are reproducible
// byte-for-byte regardless of map iteration order.
func halfLess(a, b Half) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Dir < b.Dir
}

// halfCmp is halfLess as a three-way comparison for slices.SortFunc.
func halfCmp(a, b Half) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Dir, b.Dir)
}
