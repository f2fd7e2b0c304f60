//go:build race

package core

// raceEnabled reports whether the race detector is compiled in, so
// wall-clock bounds can be left unchecked under its slowdown.
const raceEnabled = true
