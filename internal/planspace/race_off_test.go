//go:build !race

package planspace

// raceEnabled reports whether the race detector instrumented this build;
// allocation-count tests skip under it (see race_on_test.go).
const raceEnabled = false
