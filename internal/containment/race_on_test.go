//go:build race

package containment

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
