//go:build !amd64

package la

// axpy4Vec is the hook of the amd64 vector body: elsewhere the Go loop
// does every element.
func axpy4Vec(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) int { return 0 }
