package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2AgreesWithProcCpuinfo holds the CPUID/XGETBV reading to the
// kernel's own: the avx2 flag of /proc/cpuinfo, where that file exists.
func TestAVX2AgreesWithProcCpuinfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	want, found := false, false
	for _, line := range strings.Split(string(raw), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			found = true
			for _, f := range strings.Fields(flags) {
				want = want || f == "avx2"
			}
			break
		}
	}
	if !found {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	if got := AVX2(); got != want {
		t.Fatalf("AVX2() = %v, /proc/cpuinfo says %v", got, want)
	}
}
