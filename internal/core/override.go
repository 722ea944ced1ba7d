package core

// overrideHash fingerprints an override of hi to the ASN interned as id.
func (st *runState) overrideHash(hi, id int32) uint64 {
	return entryHash(4, st.halfAt(hi), uint32(st.idx.asnOf[id]))
}

// setOverride commits an IP2AS override of hi to the ASN interned as id
// into the committed view the elections read (idx.mapID).
func (st *runState) setOverride(hi, id int32) {
	if st.ovSet[hi] {
		if st.idx.mapID[hi] == id {
			return
		}
		st.hashSum -= st.overrideHash(hi, st.idx.mapID[hi])
	}
	st.hashSum += st.overrideHash(hi, id)
	st.ovSet[hi] = true
	st.idx.mapID[hi] = id
}

// clearOverride removes hi's override, restoring the base mapping as
// the committed view.
func (st *runState) clearOverride(hi int32) {
	if st.ovSet[hi] {
		st.hashSum -= st.overrideHash(hi, st.idx.mapID[hi])
		st.ovSet[hi] = false
		st.idx.mapID[hi] = st.idx.baseID[hi>>1]
	}
}
