package obs

import (
	"runtime"

	"cagmres/internal/cpufeat"
)

// HostKernels registers host_kernels_info{simd, goarch} = 1 on reg and
// returns the simd label — "avx2" when the device SpMV and la's axpy4
// and Gram tile run their vector bodies on this processor, "none" when
// they run the Go loops (the same bits, about 1.4× slower per dense-row
// solve) — so /healthz can carry the same string. A nil reg registers
// nothing.
func HostKernels(reg *Registry) string {
	simd := "none"
	if cpufeat.AVX2() {
		simd = "avx2"
	}
	if reg != nil {
		reg.GaugeL("host_kernels_info", "Which body the vectorised host kernels run: always 1, the labels carry the answer.",
			L("simd", simd, "goarch", runtime.GOARCH)).Set(1)
	}
	return simd
}
