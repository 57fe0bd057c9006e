package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket coordinate file (the distribution
// format of the University of Florida / SuiteSparse collection, where the
// paper's test matrices live). Supported qualifiers: real/integer/pattern
// values, general/symmetric/skew-symmetric storage. Pattern entries get
// value 1. Symmetric storage is expanded to full storage. Repeated
// entries are summed in file order (FromCoords).
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	if fields[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", fields[2])
	}
	valType := fields[3] // real | integer | pattern | complex
	symmetry := fields[4]
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported value type %q", valType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: missing size line: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %w", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative size %d %d %d", rows, cols, nnz)
	}
	if symmetry != "general" && rows != cols {
		// The mirrored entry of (i, j) is (j, i): only a square matrix
		// has one for every entry.
		return nil, fmt.Errorf("sparse: %s matrix must be square, got %dx%d", symmetry, rows, cols)
	}

	// Preallocation is capped: nnz comes straight from untrusted input,
	// and an absurd claim must not allocate before the entries exist.
	capHint := nnz * 2
	if capHint > 1<<20 || capHint < 0 {
		capHint = 1 << 20
	}
	entries := make([]Coord, 0, capHint)
	for read := 0; read < nnz; {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: truncated file at entry %d/%d: %w", read, nnz, err)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %w", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %w", f[1], err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		v := 1.0
		if valType != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value on line %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %w", f[2], err)
			}
		}
		entries = append(entries, Coord{Row: i - 1, Col: j - 1, Val: v})
		if i != j {
			switch symmetry {
			case "symmetric":
				entries = append(entries, Coord{Row: j - 1, Col: i - 1, Val: v})
			case "skew-symmetric":
				entries = append(entries, Coord{Row: j - 1, Col: i - 1, Val: -v})
			}
		}
		read++
	}
	return FromCoords(rows, cols, entries), nil
}

// WriteMatrixMarket writes the matrix in general real coordinate format.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
