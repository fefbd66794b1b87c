package native

import (
	"strings"

	"repro/internal/vm"
)

// header opens every generated plugin source.
const header = "// Code generated by repro/internal/backend/native. DO NOT EDIT.\n\n"

// laneSource is the vm's lane file, vm.LaneSource, as package main. A
// plugin must be standalone (stdlib-only imports), because a Go plugin
// may not share non-stdlib packages with its host unless every build
// detail matches; the lane file is written to be exactly that. So the
// generated code calls the vm's own lane kernels, accessors and
// rounding helpers, and the file's imports (encoding/binary, fmt, math)
// are the plugin's.
var laneSource = strings.Replace(vm.LaneSource, "package vm\n", "package main\n", 1)

// prelude holds the scalar helpers of kernelc's own semantics, which
// the lane file does not define.
const prelude = `
// b2i is vm.Value.AsInt of a bool.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// f2i is kernelc's convert() float→int path: NaN maps to 0, everything
// else truncates with Go's runtime conversion.
func f2i(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	return int64(x)
}
`
