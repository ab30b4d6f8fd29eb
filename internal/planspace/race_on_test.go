//go:build race

package planspace

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
