//go:build race

package plan

// raceEnabled reports whether the race detector is on; timing tests skip under it.
const raceEnabled = true
