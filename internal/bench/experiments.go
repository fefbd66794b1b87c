package bench

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/vm"
)

// randSlice fills deterministic pseudo-random floats in [-1, 1).
func randSlice(n int, seed uint64) []float32 {
	rng := vm.NewXorshift(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Uniform()*2 - 1)
	}
	return out
}

// capSize clamps a run size.
func capSize(n, max int) int {
	if n > max {
		return max
	}
	return n
}

// Each figure below lays out its size points first (fig6aJobs,
// fig6bJobs, fig7Jobs). A point carries its arguments as an argSet:
// the cheap shape counting reads, and a builder for the real inputs,
// which runs only when a leg executes. A counted sweep therefore builds
// no inputs at all. Measurement fans out over forEachPoint: each size
// point runs on a checked-out worker and writes its Point into a
// pre-sized slot, so the emitted series are bit-identical at every
// worker count.

// argSet is one leg's arguments in the two forms a measurement reads.
// Counting reads only the shape: kernelc.CountKey and the count-only
// evaluator see each argument's kind, its integer and bool values, and
// each pointer's element type, length and offset, and the count proof
// (kernelc.Program.Proof) makes counts and error outcomes independent
// of the rest. So shape holds zeroed buffers of the real element types and
// lengths beside the real integer arguments. build returns the real
// inputs; a leg calls it only to execute, passing the span the build
// nests under.
type argSet struct {
	shape []vm.Value
	build func(parent *obs.Span) []vm.Value
}

// lazyInputs holds real inputs built on first use and shared after: one
// point's arguments (Figures 6a and 6b) or one series' (Figure 7). The
// build runs in a bench.inputs span carrying attrs (key, value, ...)
// under the caller's span, and counts in Suite.inputBuilds.
type lazyInputs[T any] struct {
	s     *Suite
	attrs []string
	build func() T
	once  sync.Once
	v     T
}

func (in *lazyInputs[T]) get(parent *obs.Span) T {
	in.once.Do(func() {
		sp := parent.Child("bench.inputs")
		for i := 0; i+1 < len(in.attrs); i += 2 {
			sp.SetAttr(in.attrs[i], in.attrs[i+1])
		}
		in.v = in.build()
		sp.End()
		in.s.inputBuilds.Add(1)
	})
	return in.v
}

// zeroBufs hands out the pointer arguments of shapes: a zeroed buffer
// per element type and length. Counting neither writes a buffer nor
// compares two, so a sweep's shapes share them.
type zeroBufs map[zeroBuf]*vm.Buffer

type zeroBuf struct {
	prim isa.Prim
	n    int
}

func (z zeroBufs) ptr(p isa.Prim, n int) vm.Value {
	b, ok := z[zeroBuf{p, n}]
	if !ok {
		b = vm.NewBuffer(p, n)
		z[zeroBuf{p, n}] = b
	}
	return vm.PtrValue(b, 0)
}

// fig6Job is one Figure 6a or 6b size point: its size, the run size it
// evaluates at, the working set's footprint, and the arguments every
// leg of the point shares.
type fig6Job struct {
	n, runN, footprint int
	args               argSet
}

// fig6aJobs lays out Figure 6a's points: SAXPY over two float arrays.
func (s *Suite) fig6aJobs(sizes []int) []fig6Job {
	jobs, z := make([]fig6Job, len(sizes)), zeroBufs{}
	for i, n := range sizes {
		runN := capSize(n, s.MaxRunLinear)
		in := &lazyInputs[[]vm.Value]{s: s, attrs: []string{"n", strconv.Itoa(n)}, build: func() []vm.Value {
			a, b := vm.PinF32(randSlice(runN, 1)), vm.PinF32(randSlice(runN, 2))
			return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.F32Value(2.5), vm.IntValue(runN)}
		}}
		shape := []vm.Value{z.ptr(isa.PrimF32, runN), z.ptr(isa.PrimF32, runN), vm.F32Value(2.5), vm.IntValue(runN)}
		jobs[i] = fig6Job{n: n, runN: runN, footprint: 8 * n, // two float arrays
			args: argSet{shape: shape, build: in.get}}
	}
	return jobs
}

// fig6bJobs lays out Figure 6b's points: C += A·B over three float
// matrices.
func (s *Suite) fig6bJobs(sizes []int) []fig6Job {
	jobs, z := make([]fig6Job, len(sizes)), zeroBufs{}
	for i, n := range sizes {
		runN := capSize(n, s.MaxRunCubic)
		elems := runN * runN
		in := &lazyInputs[[]vm.Value]{s: s, attrs: []string{"n", strconv.Itoa(n)}, build: func() []vm.Value {
			a := vm.PinF32(randSlice(elems, 3))
			b := vm.PinF32(randSlice(elems, 4))
			c := vm.PinF32(make([]float32, elems))
			return []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(runN)}
		}}
		shape := []vm.Value{z.ptr(isa.PrimF32, elems), z.ptr(isa.PrimF32, elems), z.ptr(isa.PrimF32, elems),
			vm.IntValue(runN)}
		jobs[i] = fig6Job{n: n, runN: runN, footprint: 12 * n * n, // three float matrices
			args: argSet{shape: shape, build: in.get}}
	}
	return jobs
}

// Fig6a regenerates Figure 6a: SAXPY performance, Java vs LMS-generated,
// in flops/cycle over the given sizes (default 2^6..2^22).
func (s *Suite) Fig6a(sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = Pow2Sizes(6, 22)
	}
	staged := Series{Name: "LMS generated SAXPY", Points: make([]Point, len(sizes))}
	java := Series{Name: "Java SAXPY", Points: make([]Point, len(sizes))}
	jobs := s.fig6aJobs(sizes)

	err := s.forEachPoint("sweep:fig6a", len(jobs), func(i int, w *sweepWorker) error {
		jb := jobs[i]
		w.rt.Span.SetAttr("n", fmt.Sprint(jb.n))
		if s.restorePoint(i, &staged.Points[i], &java.Points[i]) {
			s.notePoint("sweep:fig6a", i, &staged.Points[i], &java.Points[i])
			return nil
		}
		kn, err := w.kernel("saxpy", func() (*dsl.Kernel, error) {
			return kernels.StagedSaxpy(s.RT.Arch.Features), nil
		})
		if err != nil {
			return err
		}
		jm, err := w.method("java-saxpy", func() (*ir.Func, error) {
			return kernels.JavaSaxpy(s.RT.Arch.Features), nil
		})
		if err != nil {
			return err
		}

		p, err := w.measure(w.stagedLeg(kn, jb.args, jb.footprint), jb.n, jb.runN, kernels.SaxpyFlops)
		if err != nil {
			return err
		}
		staged.Points[i] = p

		q, err := w.measure(w.javaLeg(jm, jb.args, jb.footprint), jb.n, jb.runN, kernels.SaxpyFlops)
		if err != nil {
			return err
		}
		java.Points[i] = q
		s.notePoint("sweep:fig6a", i, &staged.Points[i], &java.Points[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []Series{java, staged}, nil
}

// Fig6b regenerates Figure 6b: matrix-matrix multiplication, triple-loop
// Java vs blocked Java vs LMS-generated AVX, in flops/cycle.
func (s *Suite) Fig6b(sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = MMMSizes()
	}
	staged := Series{Name: "LMS generated MMM", Points: make([]Point, len(sizes))}
	triple := Series{Name: "Java MMM (triple loop)", Points: make([]Point, len(sizes))}
	blocked := Series{Name: "Java MMM", Points: make([]Point, len(sizes))}
	jobs := s.fig6bJobs(sizes)

	err := s.forEachPoint("sweep:fig6b", len(jobs), func(i int, w *sweepWorker) error {
		jb := jobs[i]
		w.rt.Span.SetAttr("n", fmt.Sprint(jb.n))
		if s.restorePoint(i, &staged.Points[i], &triple.Points[i], &blocked.Points[i]) {
			s.notePoint("sweep:fig6b", i, &staged.Points[i], &triple.Points[i], &blocked.Points[i])
			return nil
		}
		kn, err := w.kernel("mmm", func() (*dsl.Kernel, error) {
			return kernels.StagedMMM(s.RT.Arch.Features), nil
		})
		if err != nil {
			return err
		}
		jt, err := w.method("java-mmm-triple", func() (*ir.Func, error) {
			return kernels.JavaMMMTriple(s.RT.Arch.Features), nil
		})
		if err != nil {
			return err
		}
		jbm, err := w.method("java-mmm-blocked", func() (*ir.Func, error) {
			return kernels.JavaMMMBlocked(s.RT.Arch.Features), nil
		})
		if err != nil {
			return err
		}

		p, err := w.measure(w.stagedLeg(kn, jb.args, jb.footprint), jb.n, jb.runN, kernels.MMMFlops)
		if err != nil {
			return err
		}
		staged.Points[i] = p

		for _, jv := range []struct {
			m   *hotspot.Method
			ser *Series
		}{{jt, &triple}, {jbm, &blocked}} {
			q, err := w.measure(w.javaLeg(jv.m, jb.args, jb.footprint), jb.n, jb.runN, kernels.MMMFlops)
			if err != nil {
				return err
			}
			jv.ser.Points[i] = q
		}
		s.notePoint("sweep:fig6b", i, &staged.Points[i], &triple.Points[i], &blocked.Points[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []Series{triple, blocked, staged}, nil
}

// fig7Bits is Figure 7's precision axis.
var fig7Bits = []int{32, 16, 8, 4}

// fig7Job is one Figure 7 point: size index point of series index
// series (the Java series occupy 0..3, the staged ones 4..7 — the
// serial emission order).
type fig7Job struct {
	series, point int
	bits          int
	java          bool
	n, runN       int
	args          argSet
}

// fig7Jobs lays out Figure 7's points, series by series.
func (s *Suite) fig7Jobs(sizes []int) []fig7Job {
	var jobs []fig7Job
	inputs, z := s.fig7Inputs(sizes), zeroBufs{}
	for si, series := range inputs {
		bits, java := fig7Bits[si%len(fig7Bits)], si < len(fig7Bits)
		for pi, n := range sizes {
			runN := capSize(n, s.MaxRunLinear)
			jobs = append(jobs, fig7Job{series: si, point: pi, bits: bits, java: java, n: n, runN: runN,
				args: argSet{shape: dotShape(z, bits, runN, java), build: func(parent *obs.Span) []vm.Value {
					return series.get(parent)[pi]
				}}})
		}
	}
	return jobs
}

// Fig7 regenerates Figure 7: the variable-precision dot products, Java
// and LMS at 32/16/8/4 bits, in ops/cycle (op count 2n at every
// precision, as the paper charges).
func (s *Suite) Fig7(sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = Pow2Sizes(7, 26)
	}
	out := make([]Series, 2*len(fig7Bits))
	for si := range out {
		name := fmt.Sprintf("LMS generated %d-bit", fig7Bits[si%len(fig7Bits)])
		if si < len(fig7Bits) {
			name = fmt.Sprintf("Java %d-bit", fig7Bits[si])
		}
		out[si] = Series{Name: name, Points: make([]Point, len(sizes))}
	}
	jobs := s.fig7Jobs(sizes)

	err := s.forEachPoint("sweep:fig7", len(jobs), func(i int, w *sweepWorker) error {
		jb := jobs[i]
		series := "lms"
		if jb.java {
			series = "java"
		}
		w.rt.Span.SetAttr("n", fmt.Sprint(jb.n)).
			SetAttr("bits", fmt.Sprint(jb.bits)).SetAttr("series", series)
		if s.restorePoint(i, &out[jb.series].Points[jb.point]) {
			s.notePoint("sweep:fig7", i, &out[jb.series].Points[jb.point])
			return nil
		}
		if jb.java {
			m, err := w.method(fmt.Sprintf("java-dot-%d", jb.bits), func() (*ir.Func, error) {
				return kernels.JavaDot(jb.bits, s.RT.Arch.Features)
			})
			if err != nil {
				return err
			}
			p, err := w.measure(w.javaLeg(m, jb.args, dotFootprint(jb.bits, jb.n)),
				jb.n, jb.runN, kernels.DotOps)
			if err != nil {
				return err
			}
			out[jb.series].Points[jb.point] = p
			s.notePoint("sweep:fig7", i, &out[jb.series].Points[jb.point])
			return nil
		}
		kn, err := w.kernel(fmt.Sprintf("dot-%d", jb.bits), func() (*dsl.Kernel, error) {
			return kernels.StagedDot(jb.bits, s.RT.Arch.Features)
		})
		if err != nil {
			return err
		}
		p, err := w.measure(w.stagedLeg(kn, jb.args, dotFootprint(jb.bits, jb.n)),
			jb.n, jb.runN, kernels.DotOps)
		if err != nil {
			return err
		}
		out[jb.series].Points[jb.point] = p
		s.notePoint("sweep:fig7", i, &out[jb.series].Points[jb.point])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig7Inputs lays out Figure 7's quantized arguments, one lazily built
// series each: the four Java series, then the four staged ones, each
// indexed by point over sizes. A series builds whole on first use,
// drawing its own fresh RNG across its sizes in order, so every buffer
// is byte-identical whichever point asks first and whatever the
// schedule. The float operands depend on the run size alone, so the
// first series to build draws each size's pair once, and every series
// only reads them.
func (s *Suite) fig7Inputs(sizes []int) []*lazyInputs[[][]vm.Value] {
	var (
		drawn    sync.Once
		operands map[int][2][]float32
	)
	draw := func() map[int][2][]float32 {
		drawn.Do(func() {
			operands = map[int][2][]float32{}
			for _, n := range sizes {
				runN := capSize(n, s.MaxRunLinear)
				if _, ok := operands[runN]; !ok {
					operands[runN] = [2][]float32{randSlice(runN, 7), randSlice(runN, 8)}
				}
			}
		})
		return operands
	}
	out := make([]*lazyInputs[[][]vm.Value], 2*len(fig7Bits))
	for si := range out {
		bits, java := fig7Bits[si%len(fig7Bits)], si < len(fig7Bits)
		build, seed, series := dotArgs, uint64(1234), "lms"
		if java {
			build, seed, series = javaDotArgs, 4321, "java"
		}
		out[si] = &lazyInputs[[][]vm.Value]{s: s, attrs: []string{"series", series, "bits", strconv.Itoa(bits)},
			build: func() [][]vm.Value {
				ab, rng := draw(), vm.NewXorshift(seed)
				vals := make([][]vm.Value, len(sizes))
				for pi, n := range sizes {
					pair := ab[capSize(n, s.MaxRunLinear)]
					vals[pi] = build(bits, pair[0], pair[1], rng)
				}
				return vals
			}}
	}
	return out
}

// dotShape is the shape of one Figure 7 point's arguments (see argSet):
// the buffers dotArgs (staged) or javaDotArgs (java) builds at run size
// runN, zeroed, with a zero scale.
func dotShape(z zeroBufs, bits, runN int, java bool) []vm.Value {
	n, inv := vm.IntValue(runN), vm.F32Value(0)
	switch {
	case bits == 32:
		return []vm.Value{z.ptr(isa.PrimF32, runN), z.ptr(isa.PrimF32, runN), n}
	case bits == 16 && java:
		return []vm.Value{z.ptr(isa.PrimI16, runN), z.ptr(isa.PrimI16, runN), inv, n}
	case bits == 16:
		return []vm.Value{z.ptr(isa.PrimU16, runN), z.ptr(isa.PrimU16, runN), n}
	case bits == 8:
		return []vm.Value{z.ptr(isa.PrimI8, runN), z.ptr(isa.PrimI8, runN), inv, n}
	case java:
		return []vm.Value{z.ptr(isa.PrimU8, (runN+1)/2), z.ptr(isa.PrimU8, (runN+1)/2), inv, n}
	default: // two nibbles a byte, and the 16-entry decode table
		return []vm.Value{z.ptr(isa.PrimU8, (runN+1)/2), z.ptr(isa.PrimU8, (runN+1)/2),
			z.ptr(isa.PrimI8, 16), inv, n}
	}
}

// dotFootprint is the two-array working set at each precision.
func dotFootprint(bits, n int) int {
	switch bits {
	case 32:
		return 8 * n
	case 16:
		return 4 * n
	case 8:
		return 2 * n
	default:
		return n
	}
}

// dotArgs builds the staged kernel's arguments for one precision from
// the float operands a and b (read only): the quantized inputs and the
// element count.
func dotArgs(bits int, a, b []float32, rng *vm.Xorshift) []vm.Value {
	runN := len(a)
	switch bits {
	case 32:
		ab, bb := vm.PinF32(a), vm.PinF32(b)
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0), vm.IntValue(runN)}
	case 16:
		ha, hb := quant.EncodeF16(a), quant.EncodeF16(b)
		ab, bb := vm.PinU16(ha.Data), vm.PinU16(hb.Data)
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0), vm.IntValue(runN)}
	case 8:
		qa, qb := quant.QuantizeQ8(a, rng), quant.QuantizeQ8(b, rng)
		inv := vm.F32Value(1 / (qa.Scale * qb.Scale))
		ab, bb := vm.PinI8(qa.Data), vm.PinI8(qb.Data)
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0), inv, vm.IntValue(runN)}
	default:
		qa, qb := quant.QuantizeQ4(a, rng), quant.QuantizeQ4(b, rng)
		inv := vm.F32Value(1 / (qa.Scale * qb.Scale))
		ab, bb := vm.PinU8(qa.Data), vm.PinU8(qb.Data)
		lut := vm.PinI8(kernels.DecodeLUT4())
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0),
			vm.PtrValue(lut, 0), inv, vm.IntValue(runN)}
	}
}

// javaDotArgs adapts dotArgs to the Java kernels' signatures (the
// 16-bit Java path uses quantized shorts, and the 4-bit path has no
// LUT parameter).
func javaDotArgs(bits int, a, b []float32, rng *vm.Xorshift) []vm.Value {
	runN := len(a)
	switch bits {
	case 32, 8:
		return dotArgs(bits, a, b, rng)
	case 16:
		sa, sb := quant.Scale(a, 16), quant.Scale(b, 16)
		qa := make([]int16, runN)
		qb := make([]int16, runN)
		for i := range a {
			qa[i] = int16(a[i] * sa)
			qb[i] = int16(b[i] * sb)
		}
		inv := vm.F32Value(1 / (sa * sb))
		ab, bb := vm.PinI16(qa), vm.PinI16(qb)
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0), inv, vm.IntValue(runN)}
	default:
		qa, qb := quant.QuantizeQ4(a, rng), quant.QuantizeQ4(b, rng)
		inv := vm.F32Value(1 / (qa.Scale * qb.Scale))
		ab, bb := vm.PinU8(qa.Data), vm.PinU8(qb.Data)
		return []vm.Value{vm.PtrValue(ab, 0), vm.PtrValue(bb, 0), inv, vm.IntValue(runN)}
	}
}
