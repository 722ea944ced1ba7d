package core

import "mapit/internal/inet"

// setOverride commits an IP2AS override for h, keeping the overrides
// map (authoritative for mapping(), stateHash, and the result), the
// flat mapID view (authoritative for elections) and the hashSum
// fingerprint in lockstep. Every override write in the algorithm goes
// through here or clearOverride — that single funnel is what makes the
// mirror and fingerprint invariants checkable.
func (st *runState) setOverride(h Half, asn inet.ASN) {
	if old, ok := st.overrides[h]; ok {
		if old == asn {
			return
		}
		st.hashSum -= entryHash(4, h, uint32(old))
	}
	st.hashSum += entryHash(4, h, uint32(asn))
	st.overrides[h] = asn
	if idx := st.halfIdx(h); idx >= 0 {
		st.idx.mapID[idx] = st.internASN(asn)
	}
}

// setOverrideIdx is setOverride for commit paths that already hold h's
// half index (≥ 0) and asn's intern id, skipping both lookups.
func (st *runState) setOverrideIdx(h Half, idx int32, asn inet.ASN, id int32) {
	if old, ok := st.overrides[h]; ok {
		if old == asn {
			return
		}
		st.hashSum -= entryHash(4, h, uint32(old))
	}
	st.hashSum += entryHash(4, h, uint32(asn))
	st.overrides[h] = asn
	st.idx.mapID[idx] = id
}

// clearOverride removes h's override, restoring the base mapping as the
// committed view.
func (st *runState) clearOverride(h Half) {
	old, ok := st.overrides[h]
	if !ok {
		return
	}
	st.hashSum -= entryHash(4, h, uint32(old))
	delete(st.overrides, h)
	if idx := st.halfIdx(h); idx >= 0 {
		st.idx.mapID[idx] = st.idx.baseID[idx>>1]
	}
}
