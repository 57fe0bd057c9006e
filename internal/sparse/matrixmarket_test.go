package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	a := randCSR(rng, 30, 4)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("shape/nnz changed: %dx%d/%d", b.Rows, b.Cols, b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if b.At(i, j) != vals[k] {
				t.Fatalf("value changed at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 1.5
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric entry not mirrored")
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", a.NNZ())
	}
}

func TestMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 || a.At(0, 1) != -3 {
		t.Fatalf("skew mirror wrong: %v %v", a.At(1, 0), a.At(0, 1))
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern entries should be 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"not a header\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n1 1\n0.5\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 1 1\n2 1 1\n", // no mirror of (2,1)
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMatrixMarketSkipsBlankAndComments(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n% c1\n\n% c2\n2 2 1\n\n% mid\n1 2 7.5\n"
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 7.5 {
		t.Fatal("entry lost among comments")
	}
}
