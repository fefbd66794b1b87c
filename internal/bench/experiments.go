package bench

import (
	"fmt"
	"sync"

	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/kernels"
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

// Each figure below splits into two stages. Input setup comes first:
// serial for Figures 6a and 6b, where it is cheap, and one goroutine per
// series for Figure 7, whose quantized inputs consume a per-series RNG
// in size order (see fig7Inputs). Measurement fans out over
// forEachPoint: each size point runs on a checked-out worker and writes
// its Point into a pre-sized slot, so the emitted series are
// bit-identical at every worker count.

// Fig6a regenerates Figure 6a: SAXPY performance, Java vs LMS-generated,
// in flops/cycle over the given sizes (default 2^6..2^22).
func (s *Suite) Fig6a(sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = Pow2Sizes(6, 22)
	}
	staged := Series{Name: "LMS generated SAXPY", Points: make([]Point, len(sizes))}
	java := Series{Name: "Java SAXPY", Points: make([]Point, len(sizes))}

	type job struct {
		n, runN   int
		args      []vm.Value // shared by both legs
		footprint int
	}
	jobs := make([]job, len(sizes))
	for i, n := range sizes {
		runN := capSize(n, s.MaxRunLinear)
		a, b := vm.PinF32(randSlice(runN, 1)), vm.PinF32(randSlice(runN, 2))
		jobs[i] = job{n: n, runN: runN,
			args:      []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.F32Value(2.5), vm.IntValue(runN)},
			footprint: 8 * n, // two float arrays
		}
	}

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

	type job struct {
		n, runN   int
		args      []vm.Value // shared by all three legs
		footprint int
	}
	jobs := make([]job, len(sizes))
	for i, n := range sizes {
		runN := capSize(n, s.MaxRunCubic)
		a := vm.PinF32(randSlice(runN*runN, 3))
		b := vm.PinF32(randSlice(runN*runN, 4))
		c := vm.PinF32(make([]float32, runN*runN))
		jobs[i] = job{n: n, runN: runN,
			args:      []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(runN)},
			footprint: 12 * n * n, // three float matrices
		}
	}

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

// Fig7 regenerates Figure 7: the variable-precision dot products, Java
// and LMS at 32/16/8/4 bits, in ops/cycle (op count 2n at every
// precision, as the paper charges).
func (s *Suite) Fig7(sizes []int) ([]Series, error) {
	if sizes == nil {
		sizes = Pow2Sizes(7, 26)
	}
	bitsList := []int{32, 16, 8, 4}
	out := make([]Series, 2*len(bitsList))

	type job struct {
		series, point int
		bits          int
		java          bool
		n, runN       int
		args          []vm.Value
	}
	var jobs []job
	// Java series occupy out[0..3], staged out[4..7] — the serial
	// emission order.
	inputs := s.fig7Inputs(bitsList, sizes)
	for si := range out {
		bits, java := bitsList[si%len(bitsList)], si < len(bitsList)
		name := fmt.Sprintf("LMS generated %d-bit", bits)
		if java {
			name = fmt.Sprintf("Java %d-bit", bits)
		}
		out[si] = Series{Name: name, Points: make([]Point, len(sizes))}
		for pi, n := range sizes {
			jobs = append(jobs, job{series: si, point: pi, bits: bits, java: java,
				n: n, runN: capSize(n, s.MaxRunLinear), args: inputs[si][pi]})
		}
	}

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

// fig7Inputs quantizes Figure 7's arguments, indexed [series][point]:
// the four Java series, then the four staged ones, over sizes. The
// float operands depend on the run size alone, so each size's pair is
// drawn once and only read by the series. Each series owns a fresh RNG
// consumed across its sizes in order, so every buffer is byte-identical
// whatever the schedule; the series build concurrently, at most Workers
// at a time.
func (s *Suite) fig7Inputs(bitsList, sizes []int) [][][]vm.Value {
	operands := map[int][2][]float32{}
	for _, n := range sizes {
		runN := capSize(n, s.MaxRunLinear)
		if _, ok := operands[runN]; !ok {
			operands[runN] = [2][]float32{randSlice(runN, 7), randSlice(runN, 8)}
		}
	}
	inputs := make([][][]vm.Value, 2*len(bitsList))
	sem := make(chan struct{}, max(1, s.Workers))
	var wg sync.WaitGroup
	for si := range inputs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bits, java := bitsList[si%len(bitsList)], si < len(bitsList)
			build, rng := dotArgs, vm.NewXorshift(1234)
			if java {
				build, rng = javaDotArgs, vm.NewXorshift(4321)
			}
			series := make([][]vm.Value, len(sizes))
			for pi, n := range sizes {
				ab := operands[capSize(n, s.MaxRunLinear)]
				series[pi] = build(bits, ab[0], ab[1], rng)
			}
			inputs[si] = series
		}(si)
	}
	wg.Wait()
	return inputs
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
