package vm

import _ "embed" // LaneSource

// LaneSource is the text of lane.go. The native backend compiles it
// into every generated plugin with only its package clause rewritten,
// so plugins run the vm's own lane kernels.
//
//go:embed lane.go
var LaneSource string
