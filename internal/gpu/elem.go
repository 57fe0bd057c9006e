package gpu

// Elem is the wire/storage width of one matrix or vector element; the
// zero value is full double precision. Sub-FP64 widths are opt-in per
// transfer (Gather, Broadcast, HaloExchangeElemOn) and per kernel
// (Work.Elem).
//
// Widths reorder modeled *time* and tag the new precision ledger
// columns; the numerical narrowing itself (round-to-nearest float32 /
// bfloat16) is applied by the layers that own the data (internal/la,
// internal/dist), so an all-FP64 run charges and computes exactly what
// it always has.
type Elem int

// The shipped element widths.
const (
	// Elem64 is IEEE double precision, the historical default.
	Elem64 Elem = iota
	// Elem32 is IEEE single precision: 4 bytes on the wire, FP32 kernel
	// throughput when the cost model declares an FP32Speedup.
	Elem32
	// ElemBF16 is bfloat16 storage/transfer compression: 2 bytes on the
	// wire with float32's exponent range. Compute never happens at this
	// width — it is a pure transfer/storage format (values are widened
	// before arithmetic), so kernels charge it like Elem32.
	ElemBF16
)

// Bytes returns the wire size of one element at this width.
func (e Elem) Bytes() int {
	switch e {
	case Elem32:
		return 4
	case ElemBF16:
		return 2
	}
	return 8
}

// String names the width for reports and telemetry.
func (e Elem) String() string {
	switch e {
	case Elem32:
		return "fp32"
	case ElemBF16:
		return "bf16"
	}
	return "fp64"
}

// Valid reports whether e is one of the shipped widths.
func (e Elem) Valid() bool {
	return e == Elem64 || e == Elem32 || e == ElemBF16
}
