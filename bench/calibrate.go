package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared 2-vCPU virtual machine, the speed of memory-bound code
// wanders by ±15% over a minute while a compute-bound loop holds within
// a few percent: other tenants contend for caches and memory bandwidth,
// not for cores. Raw operation times then spread as much across runs of
// one commit as a real regression would move them. The gated time
// metric, op_cost, divides each operation's time by the time of a
// calibration task run next to it: a fixed, memory-bound program that
// shares no code with the system under test, run in its own process so
// the test's heap cannot slow it. A change to the code under test moves
// op_cost in full; host drift moves both sides of the ratio together.
// Raw times are printed beside it, ungated.

// calibrateEnv, when set, makes the binary run the calibration task
// once, print its duration in milliseconds and exit.
const calibrateEnv = "MAPIT_BENCH_CALIBRATE"

// calibrationTask builds two 1Mi-entry hash maps on two goroutines and
// sorts their keys: random memory access over ~100 MB with allocation,
// like the collector and the fixpoint, on both cores.
func calibrationTask() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			m := make(map[uint64]uint64)
			x := seed
			for i := 0; i < 1<<20; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				m[x] = x
			}
			keys := make([]uint64, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			slices.Sort(keys)
		}(uint64(g + 1))
	}
	wg.Wait()
	return time.Since(start)
}

// runCalibration serves calibrateEnv: it reports whether this process
// was started to calibrate, after doing so.
func runCalibration() bool {
	if os.Getenv(calibrateEnv) == "" {
		return false
	}
	fmt.Printf("%.6f\n", float64(calibrationTask())/1e6)
	return true
}

// calibrate runs the calibration task in a fresh process of this binary
// and returns its duration in milliseconds.
func calibrate() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibrateEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	ms, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("calibration output %q: %w", out, err)
	}
	return ms, nil
}

// costs accumulates operation times paired with the calibration run
// next to them.
type costs struct {
	ratios, opMs, calMs []float64
}

// add pairs one operation time (or a group's median) with a fresh
// calibration run.
func (c *costs) add(opMs float64) error {
	cal, err := calibrate()
	if err != nil {
		return err
	}
	c.ratios = append(c.ratios, opMs/cal)
	c.opMs = append(c.opMs, opMs)
	c.calMs = append(c.calMs, cal)
	return nil
}

// report sets op_cost, the median ratio, and prints the calibration
// time it was measured against. Operations whose cost grows through the
// run by design (serve-mixed ingests a growing corpus) report the mean:
// the median of a rising series is one sample's worth of noise.
func (c *costs) report(e *env, op string, rising bool) {
	agg, how := median, "median"
	if rising {
		agg, how = mean, "mean"
	}
	e.e2e.set("op_cost", agg(c.ratios), "ratio",
		fmt.Sprintf("%s of %d (%s time / calibration time) pairs", how, len(c.ratios), op))
	e.info.set("calibration_ms", median(c.calMs), "ms", fmt.Sprintf("median of %d calibration runs", len(c.calMs)))
}
