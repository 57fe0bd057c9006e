package gpu

// BLAS-1 over n elements: Dot is x'y, x and y read; SelfDot x'x, x read
// once; Axpy y += αx and Sub y := x - y, x and y read, y written; Scale
// y := αx, in place or into another column, x read, y written.
func Dot(n int) Work     { return work(2*n, 16*n, Elem64) }
func SelfDot(n int) Work { return work(2*n, 8*n, Elem64) }
func Axpy(n int) Work    { return work(2*n, 24*n, Elem64) }
func Scale(n int) Work   { return work(n, 16*n, Elem64) }
func Sub(n int) Work     { return work(n, 24*n, Elem64) }

// BLAS-2 on an r x k panel A: GemvT is the dot form y := A'x, A and x
// read; Gemv the axpy form y += A x, A and y read, y written; Rank1
// A -= x c', x and A read, A written.
func GemvT(r, k int) Work { return work(2*r*k, 8*r*(k+1), Elem64) }
func Gemv(r, k int) Work  { return work(2*r*k, 8*r*(k+2), Elem64) }
func Rank1(r, k int) Work { return work(2*r*k, 8*r*(2*k+1), Elem64) }

// BLAS-3 on r x p, r x w and r x c panels: GemmTN is C := P'W, P and W
// read; Syrk the Gram matrix W'W, W read once; GemmNN W -= P M, P and W
// read, W written; Trsm W := W R^-1, W read and written.
func GemmTN(r, p, w int, e Elem) Work { return work(2*r*p*w, e.Bytes()*r*(p+w), e) }
func Syrk(r, c int, e Elem) Work      { return work(r*c*c, e.Bytes()*r*c, e) }
func GemmNN(r, p, w int, e Elem) Work { return work(2*r*p*w, e.Bytes()*r*(p+2*w), e) }
func Trsm(r, c int) Work              { return work(r*c*c, 16*r*c, Elem64) }

// SpMV is y := A x over rows rows holding nnz entries, an MPK step one of
// them: values and 4-byte column indices read, x read and y written at
// rows elements each. CAQRLocal is the Householder QR of an r x c panel
// and its explicit Q, 2rc² flops each; it sweeps the trailing panel once
// per reflector (BLAS-1/2), so it moves rc² elements, not one read: why
// CAQR runs at a fraction of CholQR's rate (Figure 11c).
func SpMV(nnz, rows int, e Elem) Work { return work(2*nnz, nnz*(4+e.Bytes())+2*rows*e.Bytes(), e) }
func CAQRLocal(r, c int) Work         { return work(4*r*c*c, 8*r*c*c, Elem64) }

func work(f, b int, e Elem) Work { return Work{Flops: float64(f), Bytes: float64(b), Elem: e} }
