package server

import (
	"encoding/json"
	"strings"
	"testing"

	"cagmres/internal/core"
)

// FuzzMatrixMarketSpec drives the server's inline-matrix path — the
// MatrixMarket parse behind MatrixSpec.MatrixMarket — with hostile
// bodies: any input must either parse into a structurally sound CSR or
// return an error; it must never panic (a panic here is a
// remote-crash vector, since the body arrives straight off POST
// /solve).
func FuzzMatrixMarketSpec(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2.0\n2 2 2.0\n3 3 2.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 -1.0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
		"%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"% comment only\n",
		"",
		"3 3 1\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n2 2 1.0\n", // index out of range
		"%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 99999999\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 NaN\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		srv := &Server{matrices: newMatrixCache(nil)}
		a, key, err := srv.matrix(MatrixSpec{MatrixMarket: body})
		if err != nil {
			return
		}
		if a == nil || key == "" {
			t.Fatalf("nil matrix / empty key without error for %q", body)
		}
		if a.Rows < 0 || a.Cols < 0 {
			t.Fatalf("negative dims %dx%d from %q", a.Rows, a.Cols, body)
		}
		if len(a.RowPtr) != a.Rows+1 {
			t.Fatalf("rowptr len %d for %d rows from %q", len(a.RowPtr), a.Rows, body)
		}
		nnz := a.RowPtr[a.Rows]
		if nnz != len(a.ColIdx) || nnz != len(a.Val) {
			t.Fatalf("inconsistent nnz %d vs colidx %d vals %d from %q", nnz, len(a.ColIdx), len(a.Val), body)
		}
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] > a.RowPtr[i+1] {
				t.Fatalf("rowptr not monotone at %d from %q", i, body)
			}
		}
		for _, c := range a.ColIdx {
			if c < 0 || c >= a.Cols {
				t.Fatalf("column %d outside 0..%d from %q", c, a.Cols-1, body)
			}
		}
		// Round-trip through the cache: the same body must hit the same
		// key and the shared CSR.
		a2, key2, err := srv.matrix(MatrixSpec{MatrixMarket: body})
		if err != nil || a2 != a || key2 != key {
			t.Fatalf("cache round-trip diverged: %v %p/%p %q/%q", err, a, a2, key, key2)
		}
		_ = strings.TrimSpace(body)
	})
}

// FuzzPrecisionField drives the enumerated string fields of the POST
// /solve body decoder — precision and solver — with hostile JSON:
// whatever arrives, decoding plus normalization must never panic, must
// only ever accept the canonical names (three precision modes; "gmres",
// "ca" or nothing for the solver), and must be idempotent on what it
// accepts — the invariants the solve handler's bad_request gate relies
// on.
func FuzzPrecisionField(f *testing.F) {
	seeds := []string{
		`{"matrix":{"name":"laplace2d"},"precision":"mixed"}`,
		`{"matrix":{"name":"laplace2d"},"precision":"adaptive"}`,
		`{"matrix":{"name":"laplace2d"},"precision":"fp64"}`,
		`{"matrix":{"name":"laplace2d"}}`,
		`{"precision":""}`,
		`{"precision":"MIXED"}`,
		`{"precision":"fp32"}`,
		`{"precision":"bf16"}`,
		`{"precision":"mixed "}`,
		`{"precision":"fp64"}`,
		`{"precision":42}`,
		`{"precision":null}`,
		`{"precision":["mixed"]}`,
		`{"precision":"` + strings.Repeat("a", 4096) + `"}`,
		`{"matrix":{"name":"laplace2d"},"solver":"gmres"}`,
		`{"solver":"ca","precision":"mixed"}`,
		`{"solver":""}`,
		`{"solver":"GMRES"}`,
		`{"solver":"ca "}`,
		`{"solver":"cagmres"}`,
		`{"solver":7}`,
		`{"solver":null}`,
		`{"solver":{"name":"ca"}}`,
		`{"solver":"` + strings.Repeat("g", 4096) + `"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req SolveRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return // the handler answers bad_request before either field is read
		}
		known := req.Solver == "" || req.Solver == "ca" || req.Solver == "gmres"
		if solve, err := core.SolverByName(req.Solver); (solve != nil) != known || (err == nil) != known {
			t.Fatalf("SolverByName(%q) = %v, %v; known name: %v", req.Solver, solve != nil, err, known)
		}
		got, err := core.NormalizePrecision(req.Precision)
		if err != nil {
			if got != "" {
				t.Fatalf("NormalizePrecision(%q) returned %q alongside error %v", req.Precision, got, err)
			}
			return
		}
		switch got {
		case core.PrecisionFP64, core.PrecisionMixed, core.PrecisionAdaptive:
		default:
			t.Fatalf("NormalizePrecision(%q) accepted unknown mode %q", req.Precision, got)
		}
		if req.Precision == "" && got != core.PrecisionFP64 {
			t.Fatalf("empty precision normalized to %q, want fp64", got)
		}
		again, err := core.NormalizePrecision(got)
		if err != nil || again != got {
			t.Fatalf("NormalizePrecision not idempotent: %q -> %q, %v", got, again, err)
		}
	})
}
