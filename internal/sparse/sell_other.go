//go:build !amd64

package sparse

// mulVecChunks is the hook of the amd64 vector body: elsewhere the Go
// loop does every chunk.
func (s *SELL) mulVecChunks(y, x []float64, chunks int) int { return 0 }
