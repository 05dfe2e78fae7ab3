//go:build amd64 && !purego

package tensor

import "testing"

// backends lists the kernel backends this build contains. Tests and
// benchmarks run their body once per entry, after use has selected it.
var backends = []backend{{"go", false}, {"avx2", true}}

type backend struct {
	name string
	avx2 bool
}

// use routes the kernels to b until tb ends, by setting the package's own
// dispatch variable; it skips when b is the assembly backend and the CPU
// cannot run it.
func (b backend) use(tb testing.TB) {
	if avx2, _ := cpuFeatures(); b.avx2 && !avx2 {
		tb.Skip("this CPU lacks AVX2: only the portable backend can be exercised")
	}
	old := useAVX2
	useAVX2 = b.avx2
	tb.Cleanup(func() { useAVX2 = old })
}
