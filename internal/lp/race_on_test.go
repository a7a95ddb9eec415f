//go:build race

package lp

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the items put back, so pool reuse cannot be measured there.
const raceEnabled = true
