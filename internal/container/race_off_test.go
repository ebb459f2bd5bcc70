//go:build !race

package container

const raceEnabled = false
