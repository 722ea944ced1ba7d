package meta

import (
	"testing"

	"mapit/internal/audit"
)

// matrixSeeds returns the seed list for the full matrices, trimmed
// under -short so the harness stays cheap in quick CI passes.
func matrixSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3, 4, 5, 6, 7, 8}
}

// TestExhaustiveAuditMatrix is the headline invariant sweep: every seed
// × profile pipeline runs under the exhaustive runtime auditor and must
// come back violation-free. Run under -race in CI.
func TestExhaustiveAuditMatrix(t *testing.T) {
	for _, profile := range []Profile{Clean, ArtifactHeavy} {
		for _, seed := range matrixSeeds(t) {
			pl := NewPipeline(profile, seed)
			t.Run(pl.Name(), func(t *testing.T) {
				r, err := pl.RunAudited(audit.Exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				if r.Audit == nil || r.Audit.Checks == 0 {
					t.Fatal("audit did not run")
				}
				if !r.Audit.Ok() {
					t.Fatalf("audit violations:\n%s\n%v", r.Audit, r.Audit.Violations)
				}
			})
		}
	}
	// IXP-dense worlds are slower to generate; audit a couple of seeds.
	for _, seed := range []int64{1, 2} {
		pl := NewPipeline(IXPDense, seed)
		t.Run(pl.Name(), func(t *testing.T) {
			r, err := pl.RunAudited(audit.Exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Audit.Ok() {
				t.Fatalf("audit violations:\n%s\n%v", r.Audit, r.Audit.Violations)
			}
		})
	}
}

// TestMetamorphicProperties runs every metamorphic driver over the seed
// × profile matrix.
func TestMetamorphicProperties(t *testing.T) {
	seeds := matrixSeeds(t)
	if !testing.Short() {
		seeds = seeds[:4] // 4 seeds × 3 profiles × 5 properties is plenty
	}
	for _, profile := range Profiles {
		for _, seed := range seeds {
			pl := NewPipeline(profile, seed)
			t.Run(pl.Name(), func(t *testing.T) {
				checks := []struct {
					name string
					fn   func() error
				}{
					{"trace-order", func() error { return CheckTraceOrderInvariance(pl, seed+77) }},
					{"monitor-relabel", func() error { return CheckMonitorRelabelInvariance(pl) }},
					{"duplicate", func() error { return CheckDuplicateIdempotence(pl, 3) }},
					{"subset-monotone", func() error { return CheckSubsetEvidenceMonotone(pl, 4) }},
					{"asn-renumbering", func() error { return CheckASNRenumbering(pl, seed+177) }},
				}
				for _, c := range checks {
					t.Run(c.name, func(t *testing.T) {
						if err := c.fn(); err != nil {
							t.Fatal(err)
						}
					})
				}
			})
		}
	}
}

// TestDifferentialOracles runs the implementation-pair oracles over the
// seed × profile matrix.
func TestDifferentialOracles(t *testing.T) {
	seeds := matrixSeeds(t)
	if !testing.Short() {
		seeds = seeds[:4]
	}
	for _, profile := range Profiles {
		for _, seed := range seeds {
			pl := NewPipeline(profile, seed)
			t.Run(pl.Name(), func(t *testing.T) {
				oracles := []struct {
					name string
					fn   func(*Pipeline) error
				}{
					{"ingest", DiffIngest},
					{"spill", DiffSpill},
					{"lpm", DiffLPM},
					{"binary-roundtrip", DiffBinaryRoundTrip},
					{"workers", DiffWorkers},
					{"snapshot", DiffSnapshot},
					{"window", DiffWindow},
				}
				for _, o := range oracles {
					t.Run(o.name, func(t *testing.T) {
						if err := o.fn(pl); err != nil {
							t.Fatal(err)
						}
					})
				}
			})
		}
	}
}

// TestProfilesDiffer guards the profile knobs: the three profiles must
// actually generate different worlds (identical outputs would mean the
// matrix multiplies cost without multiplying coverage).
func TestProfilesDiffer(t *testing.T) {
	snaps := map[Profile]string{}
	for _, p := range Profiles {
		pl := NewPipeline(p, 1)
		r, err := pl.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		snaps[p] = Snapshot(r)
	}
	if snaps[Clean] == snaps[ArtifactHeavy] || snaps[Clean] == snaps[IXPDense] ||
		snaps[ArtifactHeavy] == snaps[IXPDense] {
		t.Fatal("two profiles produced identical snapshots")
	}
}
