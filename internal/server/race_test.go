//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of Puts, so allocation counts of pooled paths do not repeat.
const raceEnabled = true
