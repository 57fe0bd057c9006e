//go:build !race

package la

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
