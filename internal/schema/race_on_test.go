//go:build race

package schema

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
