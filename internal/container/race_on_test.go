//go:build race

package container

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts stop being exact.
const raceEnabled = true
