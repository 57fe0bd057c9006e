//go:build race

package la

// raceEnabled reports a -race build, where sync.Pool drops items at
// random: a test that counts pooled-buffer reuse cannot hold there.
const raceEnabled = true
