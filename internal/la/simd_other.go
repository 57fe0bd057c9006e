//go:build !amd64

package la

// axpy4Vec, gramTileVec and dot8Vec are the hooks of the amd64 vector
// bodies: elsewhere the Go loops do every element.
func axpy4Vec(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) int { return 0 }

func gramTileVec(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64) int { return 0 }

func dot8Vec(a *[8][]float64, x []float64, out *[8]float64) int { return 0 }
