//go:build !race

package ortho

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
