package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// maxExecN bounds execute-request sizes so one request cannot pin
// gigabytes (admission control on memory, not just queue depth).
const (
	maxExecLinear = 1 << 22
	maxExecMatrix = 1024
)

// stageable maps kernel names to their staging constructors — the
// subset of the registry that compiles through core (the Java baseline
// methods load into the simulated JVM instead and are not served).
func stageable() map[string]func(fs isa.FeatureSet) (*dsl.Kernel, error) {
	wrap := func(f func(isa.FeatureSet) *dsl.Kernel) func(isa.FeatureSet) (*dsl.Kernel, error) {
		return func(fs isa.FeatureSet) (*dsl.Kernel, error) { return f(fs), nil }
	}
	return map[string]func(fs isa.FeatureSet) (*dsl.Kernel, error){
		"saxpy":       wrap(kernels.StagedSaxpy),
		"saxpy_multi": wrap(kernels.StagedSaxpyMulti),
		"mmm_blocked": wrap(kernels.StagedMMM),
		"mmm_naive":   wrap(kernels.StagedMMMNaive),
		"dot32":       func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(32, fs) },
		"dot16":       func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(16, fs) },
		"dot8":        func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(8, fs) },
		"dot4":        func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(4, fs) },
		"dot4_alu":    wrap(kernels.StagedDot4ALU),
		"dot512":      wrap(kernels.StagedDot512),
		"logistic":    wrap(kernels.StagedLogistic),
	}
}

// StageResult is the response to a stage request: what the compile
// produced, without the artifact itself (that lives in the shared
// caches, ready for execute requests).
type StageResult struct {
	Kernel          string `json:"kernel"`
	Machine         string `json:"machine"`
	Hash            string `json:"hash"`
	SourceBytes     int    `json:"source_bytes"`
	CompileCommand  string `json:"compile_command"`
	VerifyWarnings  int    `json:"verify_warnings"`
	Backend         string `json:"backend"`
	BackendFallback string `json:"backend_fallback,omitempty"`
}

// stageKernel compiles one named kernel on the given runtime (a tenant
// fork). Cheap when the artifact is cached — which is the point: warm
// serving is compile-free.
func stageKernel(rt *core.Runtime, name string) (StageResult, error) {
	build, ok := stageable()[name]
	if !ok {
		return StageResult{}, fmt.Errorf("unknown stageable kernel %q (GET /v1/kernels lists them)", name)
	}
	k, err := build(rt.Arch.Features)
	if err != nil {
		return StageResult{}, err
	}
	kn, err := rt.Compile(k)
	if err != nil {
		return StageResult{}, err
	}
	return StageResult{
		Kernel:          name,
		Machine:         rt.Arch.Name,
		Hash:            fmt.Sprintf("%016x", ir.Hash(kn.Func())),
		SourceBytes:     len(kn.Source()),
		CompileCommand:  kn.CompileCommand(),
		VerifyWarnings:  kn.Verify().Warnings(),
		Backend:         rt.BackendName(),
		BackendFallback: kn.BackendFallback(),
	}, nil
}

// ExecResult is the response body of a finished execute job. Output is
// the mutated destination buffer as float32 bit patterns — a bitwise,
// platform-independent encoding, so "byte-identical to the CLI path"
// is checkable on the wire.
type ExecResult struct {
	Kernel  string   `json:"kernel"`
	Machine string   `json:"machine"`
	N       int      `json:"n"`
	Result  string   `json:"result"`
	Output  []string `json:"output,omitempty"`
	VMOps   int64    `json:"vm_ops"`
}

// randSlice mirrors the bench harness's deterministic input generator:
// same seed, same bytes, so served executions reproduce the harness's.
func randSlice(n int, seed uint64) []float32 {
	rng := vm.NewXorshift(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Uniform()*2 - 1)
	}
	return out
}

func hexF32s(xs []float32) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%08x", math.Float32bits(x))
	}
	return out
}

// renderValue encodes a kernel's scalar return bitwise.
func renderValue(v vm.Value) string {
	switch v.Kind {
	case ir.KindVoid:
		return "void"
	case ir.KindF32:
		return fmt.Sprintf("f32:%08x", math.Float32bits(float32(v.F)))
	case ir.KindF64:
		return fmt.Sprintf("f64:%016x", math.Float64bits(v.F))
	case ir.KindBool:
		return fmt.Sprintf("bool:%v", v.B)
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return fmt.Sprintf("%s:%x", ir.Type{Kind: v.Kind}, v.U)
	default:
		return fmt.Sprintf("%s:%d", ir.Type{Kind: v.Kind}, v.I)
	}
}

// execPlan describes how to run one executable kernel at size n with
// the deterministic inputs, and which buffer comes back as the output.
type execPlan struct {
	validate func(n int) error
	run      func(kn *core.Kernel, n int) (vm.Value, []float32, error)
}

func linearN(n int) error {
	if n <= 0 || n > maxExecLinear {
		return fmt.Errorf("n must be in [1, %d]", maxExecLinear)
	}
	return nil
}

// dot32N admits whole loop iterations only: the staged dot32 kernel
// consumes 32 floats per iteration with no scalar tail, so any other n
// reads past the end of its inputs.
func dot32N(n int) error {
	if n <= 0 || n > maxExecLinear || n%32 != 0 {
		return fmt.Errorf("n must be a multiple of 32 in [32, %d]", maxExecLinear)
	}
	return nil
}

func matrixN(n int) error {
	if n <= 0 || n > maxExecMatrix || n%8 != 0 {
		return fmt.Errorf("n must be a multiple of 8 in [8, %d]", maxExecMatrix)
	}
	return nil
}

func saxpyPlan() execPlan {
	return execPlan{validate: linearN,
		run: func(kn *core.Kernel, n int) (vm.Value, []float32, error) {
			a, b := randSlice(n, 1), randSlice(n, 2)
			res, err := kn.Call(a, b, float32(2.5), n)
			return res, a, err
		}}
}

func mmmPlan() execPlan {
	return execPlan{validate: matrixN,
		run: func(kn *core.Kernel, n int) (vm.Value, []float32, error) {
			a, b := randSlice(n*n, 3), randSlice(n*n, 4)
			c := make([]float32, n*n)
			res, err := kn.Call(a, b, c, n)
			return res, c, err
		}}
}

// executable maps the kernels an execute job may name to their plans.
func executable() map[string]execPlan {
	return map[string]execPlan{
		"saxpy":       saxpyPlan(),
		"saxpy_multi": saxpyPlan(),
		"mmm_blocked": mmmPlan(),
		"mmm_naive":   mmmPlan(),
		"dot32": {validate: dot32N,
			run: func(kn *core.Kernel, n int) (vm.Value, []float32, error) {
				a, b := randSlice(n, 7), randSlice(n, 8)
				res, err := kn.Call(a, b, n)
				return res, nil, err
			}},
	}
}

// ExecutableKernels lists the kernels execute jobs accept, sorted.
func ExecutableKernels() []string {
	m := executable()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StageableKernels lists the kernels stage requests accept, sorted.
func StageableKernels() []string {
	m := stageable()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// validateSpec rejects malformed specs at submission time, before the
// queue — bad requests should cost a 400, not a worker slot.
func validateSpec(spec Spec) error {
	lookupMachine := func() error {
		if spec.Machine == "" {
			return nil
		}
		_, err := isa.LookupMicroarch(spec.Machine)
		return err
	}
	switch spec.Type {
	case "stage":
		if _, ok := stageable()[spec.Kernel]; !ok {
			return fmt.Errorf("unknown stageable kernel %q", spec.Kernel)
		}
		return lookupMachine()
	case "execute":
		plan, ok := executable()[spec.Kernel]
		if !ok {
			return fmt.Errorf("kernel %q is not executable (GET /v1/kernels lists the executable set)", spec.Kernel)
		}
		if err := plan.validate(spec.N); err != nil {
			return fmt.Errorf("kernel %q: %w", spec.Kernel, err)
		}
		return lookupMachine()
	case "sweep":
		if _, err := bench.FigureSizes(spec.Figure, spec.Quick); err != nil {
			return err
		}
		if spec.Machine != "" {
			return fmt.Errorf("sweep jobs run on the daemon's configured machine; drop the machine field")
		}
		if spec.Workers < 0 {
			return fmt.Errorf("workers must be >= 0")
		}
		for _, n := range spec.Sizes {
			if n <= 0 || n > maxExecLinear {
				return fmt.Errorf("sweep size %d out of range [1, %d]", n, maxExecLinear)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown job type %q (stage | execute | sweep)", spec.Type)
	}
}

// archFor resolves a spec's machine name (empty means the daemon's).
func archFor(name string) (*isa.Microarch, error) {
	if name == "" {
		return nil, nil
	}
	return isa.LookupMicroarch(name)
}

// runJob executes one job on a freshly forked per-job runtime and
// returns the result payload. ctx cancellation surfaces as
// context.Canceled, which the worker records as StateCancelled.
func (s *Server) runJob(j *job) (payload string, contentType string, counts vm.Counter, err error) {
	spec := j.snapshot().Spec
	t := s.tenants.get(spec.Tenant)
	arch, err := archFor(spec.Machine)
	if err != nil {
		return "", "", nil, err
	}
	jrt := t.fork(arch)

	if err := j.ctx.Err(); err != nil {
		return "", "", nil, context.Canceled
	}

	switch spec.Type {
	case "stage":
		res, err := stageKernel(jrt, spec.Kernel)
		if err != nil {
			return "", "", jrt.Machine.Counts, err
		}
		data, _ := json.MarshalIndent(res, "", "  ")
		return string(data) + "\n", "application/json", jrt.Machine.Counts, nil

	case "execute":
		build := stageable()[spec.Kernel]
		ep := executable()[spec.Kernel]
		k, err := build(jrt.Arch.Features)
		if err != nil {
			return "", "", jrt.Machine.Counts, err
		}
		kn, err := jrt.Compile(k)
		if err != nil {
			return "", "", jrt.Machine.Counts, err
		}
		res, out, err := ep.run(kn, spec.N)
		if err != nil {
			return "", "", jrt.Machine.Counts, err
		}
		j.attachPlan(jrt, kn.Func().Name)
		body := ExecResult{
			Kernel:  spec.Kernel,
			Machine: jrt.Arch.Name,
			N:       spec.N,
			Result:  renderValue(res),
			Output:  hexF32s(out),
			VMOps:   jrt.Machine.Counts.Total(),
		}
		data, _ := json.MarshalIndent(body, "", "  ")
		return string(data) + "\n", "application/json", jrt.Machine.Counts, nil

	case "sweep":
		text, counts, err := s.runSweep(j, jrt)
		return text, "text/plain; charset=utf-8", counts, err

	default:
		return "", "", nil, fmt.Errorf("unknown job type %q", spec.Type)
	}
}

// runSweep reruns one CLI figure sweep as a job: same sizes, same
// suite knobs, same Format call — byte-identical output by
// construction. Progress streams one event per measured point, and
// the job context interrupts the sweep at point granularity.
func (s *Server) runSweep(j *job, jrt *core.Runtime) (string, vm.Counter, error) {
	spec := j.snapshot().Spec
	suite := bench.NewSuite()
	suite.RT = jrt
	if spec.Quick {
		// The CLI's -quick knobs, so served quick sweeps match
		// `ngen -quick fig*` exactly.
		suite.MaxRunLinear = 1 << 11
		suite.MaxRunCubic = 32
		suite.Reps = 1
	}
	if spec.Workers > 1 {
		suite.Workers = spec.Workers
	}
	suite.OnPoint = func(sweep string, done, total int) {
		if s.pointHook != nil {
			s.pointHook()
		}
		s.publishJob(j, Event{Event: "progress", Sweep: sweep, Done: done, Total: total}, false)
	}
	suite.Interrupt = func() error { return j.ctx.Err() }

	// Checkpoint/resume: restore the points an interrupted run already
	// measured, and persist each completed point so the next restart
	// can do the same. ckptMu also covers the store write, keeping the
	// persisted file monotonic under parallel sweep workers.
	j.ckptMu.Lock()
	if len(j.ckpt) > 0 {
		// The suite reads Resume while OnPointDone grows j.ckpt, so it
		// gets its own snapshot.
		resume := make(map[int][]bench.PointCkpt, len(j.ckpt))
		for i, pts := range j.ckpt {
			resume[i] = pts
		}
		suite.Resume = resume
		s.Reg.Counter("server.resume.points").Add(int64(len(resume)))
	}
	j.ckptMu.Unlock()
	suite.OnPointDone = func(sweep string, i int, pts []bench.PointCkpt) {
		j.ckptMu.Lock()
		if j.ckpt == nil {
			j.ckpt = map[int][]bench.PointCkpt{}
		}
		j.ckpt[i] = pts
		if s.store != nil {
			if err := s.store.putCkpt(j.rec.ID, j.ckpt); err != nil {
				fmt.Printf("ngend: checkpoint write failed: %v\n", err)
			}
		}
		j.ckptMu.Unlock()
	}

	sizes := spec.Sizes
	if sizes == nil {
		var err error
		sizes, err = bench.FigureSizes(spec.Figure, spec.Quick)
		if err != nil {
			return "", nil, err
		}
	}
	text, err := suite.RunFigure(spec.Figure, sizes)
	counts := suite.SweepCounts.Clone()
	counts.Merge(jrt.Machine.Counts)
	if err != nil {
		return "", counts, err
	}
	j.attachPlan(jrt, "")
	return text, counts, nil
}

// attachPlan records the planner's decisions on the job record — the
// named kernel's plans, or every live plan when kernel is "" (sweeps
// touch several kernels). No-op when the planner is off. Runs before
// the job turns terminal, so the views ride the persisted record and
// /v1/jobs/<id>.
func (j *job) attachPlan(jrt *core.Runtime, kernel string) {
	if jrt.Planner == nil {
		return
	}
	views := jrt.Planner.Snapshot()
	if kernel != "" {
		views = jrt.Planner.KernelViews(kernel)
	}
	if len(views) == 0 {
		return
	}
	j.mu.Lock()
	j.rec.Plan = views
	j.mu.Unlock()
}
