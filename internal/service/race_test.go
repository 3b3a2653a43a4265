//go:build race

package service

// raceEnabled reports that the race detector is active: sync.Pool drops
// puts at random under -race, so allocation gates are looser there.
const raceEnabled = true
