//go:build race

package reformulate

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
