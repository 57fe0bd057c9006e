//go:build !amd64

package la

// axpy4Vec and gramTileVec are the hooks of the amd64 vector bodies:
// elsewhere the Go loops do every element.
func axpy4Vec(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64) int { return 0 }

func gramTileVec(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64) int { return 0 }
