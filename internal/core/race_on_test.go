//go:build race

package core

// raceEnabled reports that the race detector is compiled in. Under it a
// sync.Pool drops a quarter of what it is given, so an allocation count
// is not exact.
const raceEnabled = true
