package main

// ngen plan — the execution planner's calibration tool. It compiles a
// set of registry kernels on a planned runtime, drives each through
// representative size buckets until every plan calibrates, and prints
// the predicted-vs-measured strategy tables the planner decided from.
// With -cachedir the calibrated plans persist next to the compile
// cache, so a subsequent run (or ngen -auto / ngend) starts warm: the
// `plan probes: 0` line on a second run is the CI plancheck gate's
// evidence that persistence works. See docs/PLANNER.md.

import (
	"flag"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/vm"
)

// planTarget is one kernel the calibrator drives: how to stage it, the
// sizes spanning its interesting buckets, and how to build arguments.
type planTarget struct {
	name  string
	stage func(fs isa.FeatureSet) (*dsl.Kernel, error)
	sizes []int
	args  func(n int) []vm.Value
}

func planTargets() []planTarget {
	return []planTarget{
		{
			name:  "saxpy",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedSaxpy(fs), nil },
			sizes: []int{1 << 6, 1 << 12, 1 << 16},
			args: func(n int) []vm.Value {
				a := vm.PinF32(make([]float32, n))
				y := vm.PinF32(make([]float32, n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
					vm.F32Value(2.5), vm.IntValue(n)}
			},
		},
		{
			name:  "mmm",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil },
			sizes: []int{16, 64},
			args: func(n int) []vm.Value {
				a := vm.PinF32(make([]float32, n*n))
				b := vm.PinF32(make([]float32, n*n))
				c := vm.PinF32(make([]float32, n*n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
					vm.PtrValue(c, 0), vm.IntValue(n)}
			},
		},
		{
			name:  "dot8",
			stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(8, fs) },
			sizes: []int{1 << 8, 1 << 14},
			args: func(n int) []vm.Value {
				a := vm.PinI8(make([]int8, n))
				b := vm.PinI8(make([]int8, n))
				return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
					vm.F32Value(1), vm.IntValue(n)}
			},
		},
	}
}

// calibrateRounds bounds the invocations per size: install (1) plus a
// full probe sweep (≤3 candidates × default budget 2) fits well inside
// it, and warm keys exit on the calibration check after one call.
const calibrateRounds = 16

func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	cachedir := fs.String("cachedir", "", "persistent cache directory; calibrated plans are stored and reloaded here")
	check := fs.Bool("check", false, "verify every plan calibrates and its chosen strategy is the measured argmin (exit 1 otherwise)")
	par := fs.Int("par", runtime.NumCPU(), "lane budget for the parallel candidate (≤1 disables it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := planTargets()
	if fs.NArg() > 0 {
		byName := map[string]planTarget{}
		for _, t := range targets {
			byName[t.name] = t
		}
		targets = targets[:0]
		for _, name := range fs.Args() {
			t, ok := byName[name]
			if !ok {
				return fmt.Errorf("plan: unknown kernel %q (have saxpy, mmm, dot8)", name)
			}
			targets = append(targets, t)
		}
	}

	rt := core.DefaultRuntime()
	rt.Machine.Workers = *par
	if *cachedir != "" {
		d, err := core.OpenDiskCache(*cachedir, 0)
		if err != nil {
			return err
		}
		rt.Disk = d
	}

	// Eager native builds on a fork: the planner never pays a toolchain
	// run mid-measurement (backend.CachedCompiler admits cache hits
	// only), so the calibrator builds the plugins up front. Hosts
	// without the native backend calibrate the interpreter alone.
	nrt := rt.Fork()
	nativeErr := nrt.UseBackend("native")
	if nativeErr != nil {
		fmt.Printf("plan: native backend unavailable (%v); calibrating vm only\n", nativeErr)
	} else {
		for _, t := range targets {
			k, err := t.stage(rt.Arch.Features)
			if err != nil {
				return err
			}
			if _, err := nrt.Compile(k); err != nil {
				return fmt.Errorf("plan: native build of %s: %w", t.name, err)
			}
		}
	}

	rt.EnableAutoPlan()

	for _, t := range targets {
		k, err := t.stage(rt.Arch.Features)
		if err != nil {
			return err
		}
		kn, err := rt.Compile(k)
		if err != nil {
			return err
		}
		kernel := kn.Func().Name
		if !kn.Planned() {
			// No native executable, and no lanes or no loop with a
			// parallel plan: vm/1 is the only strategy, so the runtime
			// never plans this kernel.
			fmt.Printf("plan: %s has one admissible strategy (vm/1); not planned\n", kernel)
			continue
		}
		for _, n := range t.sizes {
			callArgs := t.args(n)
			for i := 0; i < calibrateRounds; i++ {
				if _, err := kn.CallValues(callArgs...); err != nil {
					return err
				}
				if i > 0 && allCalibrated(rt.Planner.KernelViews(kernel)) {
					break
				}
			}
		}
		printPlanTable(kernel, rt.Planner.KernelViews(kernel))
		if *check {
			if err := checkViews(kernel, rt.Planner.KernelViews(kernel)); err != nil {
				return err
			}
		}
	}

	st := rt.Planner.Stats()
	fmt.Printf("plan probes: %d (plans %d, installs %d, loaded %d, persisted %d, mispredicts %d)\n",
		st["probes"], len(rt.Planner.Snapshot()), st["installs"],
		st["loads"], st["persists"], st["mispredict"])
	return nil
}

func allCalibrated(views []plan.View) bool {
	if len(views) == 0 {
		return false
	}
	for _, v := range views {
		if !v.Calibrated {
			return false
		}
	}
	return true
}

// printPlanTable renders one kernel's plans: a block per size bucket
// with the full candidate table, the chosen row starred.
func printPlanTable(kernel string, views []plan.View) {
	fmt.Printf("plan: %s\n%s\n", kernel, strings.Repeat("=", len("plan: ")+len(kernel)))
	for _, v := range views {
		state := "calibrating"
		if v.Calibrated {
			state = "calibrated"
		}
		fmt.Printf("bucket %d (≲%s working set, arch %s) — %s\n",
			v.Bucket, bucketBytes(v.Bucket), v.Arch, state)
		fmt.Printf("  %-1s %-16s %12s %12s %7s\n", "", "strategy", "pred ns", "meas ns", "probes")
		for _, c := range v.Candidates {
			mark := " "
			if c.Spec.String() == v.Spec {
				mark = "*"
			}
			meas := "-"
			if c.Probes > 0 {
				meas = fmt.Sprintf("%.0f", c.MeasNs)
			}
			fmt.Printf("  %-1s %-16s %12.0f %12s %7d\n",
				mark, c.Spec.String(), c.PredNs, meas, c.Probes)
		}
	}
}

// checkViews is -check: every bucket calibrated, the chosen strategy
// must be the measured argmin of its candidate table, and it must beat
// the worst candidate by a damped share of the margin the model itself
// predicted — a planner whose "choice" runs no faster than the worst
// strategy has not planned anything.
func checkViews(kernel string, views []plan.View) error {
	if len(views) == 0 {
		return fmt.Errorf("plan check: %s produced no plans", kernel)
	}
	for _, v := range views {
		if !v.Calibrated {
			return fmt.Errorf("plan check: %s bucket %d never calibrated", kernel, v.Bucket)
		}
		best, worstMeas, worstPred := -1.0, -1.0, v.PredNs
		for _, c := range v.Candidates {
			if c.PredNs > worstPred {
				worstPred = c.PredNs
			}
			if c.Probes == 0 {
				continue
			}
			if best < 0 || c.MeasNs < best {
				best = c.MeasNs
			}
			if c.MeasNs > worstMeas {
				worstMeas = c.MeasNs
			}
		}
		if best < 0 {
			return fmt.Errorf("plan check: %s bucket %d has no measured candidate", kernel, v.Bucket)
		}
		if v.MeasNs > best {
			return fmt.Errorf("plan check: %s bucket %d chose %s at %.0fns but a candidate measured %.0fns",
				kernel, v.Bucket, v.Spec, v.MeasNs, best)
		}
		// The model's own margin: predicted worst over the chosen
		// candidate's prediction. Require the measured win to preserve
		// a quarter of it — loose enough for timing noise, tight enough
		// to fail a planner that picks no better than the worst. Skipped
		// when the model predicted no meaningful spread (<10%).
		if modelMargin := worstPred / v.PredNs; modelMargin > 1.10 {
			required := 1 + (modelMargin-1)*0.25
			if got := worstMeas / v.MeasNs; got < required {
				return fmt.Errorf("plan check: %s bucket %d chose %s but beat the worst candidate only %.2fx (model margin %.2fx requires ≥%.2fx)",
					kernel, v.Bucket, v.Spec, got, modelMargin, required)
			}
		}
	}
	return nil
}

// bucketBytes renders a bucket index as its upper byte bound.
func bucketBytes(b int) string {
	bytes := int64(1) << uint(b+1)
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
