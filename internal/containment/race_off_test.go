//go:build !race

package containment

// raceEnabled reports whether the race detector instrumented this build;
// allocation-count tests skip under it (see race_on_test.go).
const raceEnabled = false
