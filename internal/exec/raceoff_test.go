//go:build !race

package exec_test

// raceEnabled reports a test binary built with the race detector.
const raceEnabled = false
