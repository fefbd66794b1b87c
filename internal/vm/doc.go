// Package vm is the software SIMD machine that stands in for native
// execution in this reproduction. It implements the lane-exact semantics
// of every intrinsic the generated bindings expose, over 64..512-bit
// register values and byte-addressed buffers (the JNI-pinned-array
// analog). The kernel compiler (internal/kernelc) executes staged graphs
// against this machine; the analytical cost model (internal/machine)
// converts the machine's dynamic instruction counts into cycle estimates.
//
// lane.go is the one source of the lane semantics the native backend
// shares: the Vec register and its accessors, the buffer byte accessors
// and bounds check, the f32 FMA rounding, the f16 decoder, saturation,
// and one kernel per op family the native emitter lowers. Its text
// (LaneSource) is compiled into every native plugin, so it imports the
// standard library only, has no init, and uses nothing another file of
// the package defines. A lane bug is fixed there, once, for both
// backends. The integer, bitwise and unpack kernels run word by word:
// each loop step handles 64 bits of lanes with no branch on lane data,
// and indexes the register without a bounds check (words, word,
// setWord).
//
// Each intrinsic whose semantic is one lane kernel is registered with a
// binding record, Lane: the kernel, whose type states its operand and
// result kinds, the register width and, for a pointer operand, the
// footprint. Intrinsic.Fn is derived from the record, and the kernel
// compiler calls the kernel straight on its frame's registers from the
// same record, so the two cannot disagree.
package vm
