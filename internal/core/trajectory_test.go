package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapit/internal/audit/meta"
	"mapit/internal/core"
)

var updateTrajectory = flag.Bool("update", false, "rewrite testdata/trajectory.golden")

// TestFixpointTrajectoryGolden pins the §4.6 fingerprint after every
// add and remove step, and the final diagnostics, over the seed ×
// profile worlds of the verification harness, under the default
// configuration and each ablation. The fingerprint covers every
// inference record and override, including those on other sides
// outside the interface universe, so any change to what the fixpoint
// stores (not only to what it reports) moves this file. Regenerate
// intentionally with
//
//	go test ./internal/core -run TestFixpointTrajectoryGolden -update
func TestFixpointTrajectoryGolden(t *testing.T) {
	ablations := []struct {
		name string
		set  func(*core.Config)
	}{
		{"default", func(*core.Config) {}},
		{"whole-interface-updates", func(c *core.Config) { c.WholeInterfaceUpdates = true }},
		{"no-dual-resolution", func(c *core.Config) { c.DisableDualResolution = true }},
		{"no-inverse-resolution", func(c *core.Config) { c.DisableInverseResolution = true }},
		{"no-remove-step", func(c *core.Config) { c.DisableRemoveStep = true }},
		{"single-pass", func(c *core.Config) { c.SinglePass = true }},
		{"no-stub-heuristic", func(c *core.Config) { c.DisableStubHeuristic = true }},
	}
	var b strings.Builder
	for _, profile := range meta.Profiles {
		for seed := int64(1); seed <= 8; seed++ {
			pl := meta.NewPipeline(profile, seed)
			for _, ab := range ablations {
				cfg := pl.Config()
				ab.set(&cfg)
				got, err := core.FixpointTrajectory(pl.Env.Sanitized, cfg)
				if err != nil {
					t.Fatalf("%s %s: %v", pl.Name(), ab.name, err)
				}
				fmt.Fprintf(&b, "# %s %s\n%s", pl.Name(), ab.name, got)
			}
		}
	}
	path := filepath.Join("testdata", "trajectory.golden")
	if *updateTrajectory {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(b.String(), "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("trajectory diverges from %s at line %d:\n  want: %s\n  got:  %s", path, i+1, w, g)
		}
	}
}
