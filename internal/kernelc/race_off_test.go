//go:build !race

package kernelc

// raceEnabled reports whether this test binary carries race
// instrumentation. Under -race sync.Pool drops pooled objects at
// random, so a pooled frame is sometimes reallocated and an allocation
// count says nothing about the program.
const raceEnabled = false
