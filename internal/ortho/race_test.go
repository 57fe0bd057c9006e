//go:build race

package ortho

// raceEnabled reports a -race build, where sync.Pool drops items at
// random: the fp32 kernels' pooled accumulators may allocate there.
const raceEnabled = true
