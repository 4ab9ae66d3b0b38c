//go:build race

package bulk

// raceEnabled reports that the race detector is compiled in. Under it a
// sync.Pool drops a quarter of what it is given, so recycling shows in
// an allocation count only in part.
const raceEnabled = true
