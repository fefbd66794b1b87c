//go:build race

package kernelc

// See race_off_test.go.
const raceEnabled = true
