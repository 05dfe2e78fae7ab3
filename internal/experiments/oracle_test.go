package experiments

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// oracleBits is what one tiny seeded run must reproduce to the last bit.
// trace folds every evaluation point (time, update count, loss, accuracy)
// into one FNV-1a hash, so a kernel change that perturbs an intermediate
// evaluation and happens to land on the same final point still fails.
type oracleBits struct {
	loss, acc, finalTime uint64
	updates              int
	trace                uint64
}

// TestCrossCommitOracle pins the numeric behaviour of the nn/tensor
// kernels and of held-out evaluation across commits. The repo's other
// determinism checks (TestRunDeterminism, the benchmark's per-rep
// comparison) prove that two runs of ONE binary agree; this table holds
// values recorded from the commit before the kernels were rewritten
// (b755e6a), so a rewrite that reassociates a single floating-point sum
// anywhere on the training or evaluation path fails here. The three tasks
// cover every kernel user: MNIST (one conv, inC = 1), CIFAR (two convs,
// the only inC > 1) and Wiki (LSTM: MatVec/MatVecT/AddOuter only).
//
// A legitimate numerics change re-records the table; the failure message
// prints the new row in table syntax. The bits are amd64's: on
// architectures where the compiler fuses x*y + z into one rounding (arm64,
// ppc64le, s390x) every kernel, old or new, gives other bits.
func TestCrossCommitOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("oracle bits were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		task Task
		alg  string
		want oracleBits
	}{
		{TaskMNIST, "spyker", oracleBits{0x3ffebade72c54d91, 0x3fce4b17e4b17e4b, 0x3ff526fb3f2813b7, 64, 0x2f23f0f9f79083fa}},
		{TaskMNIST, "fedavg", oracleBits{0x3ffa0595c1c92dd1, 0x3fe1b4e81b4e81b5, 0x401308edb36781aa, 64, 0x222d4877a923c4d8}},
		{TaskCIFAR, "spyker", oracleBits{0x3ffe809be2ad27ac, 0x3fd7e4b17e4b17e5, 0x3ff520d8e637b799, 64, 0x40bb7b5d9314238}},
		{TaskCIFAR, "fedavg", oracleBits{0x3ff676b52bcfeb5a, 0x3fe53a06d3a06d3a, 0x4013074af10546f5, 64, 0x614372cd3708a66e}},
		{TaskWiki, "spyker", oracleBits{0x400af9c20d7dc32a, 0x3fc4514514514514, 0x3ff4b8041087ed39, 64, 0xa0ecbf2833f9aece}},
		{TaskWiki, "fedavg", oracleBits{0x400a6956ef2552a8, 0x3fc6fbefbefbefbf, 0x4012eb5673c55544, 64, 0x1bd3c37ad079bc26}},
	}
	for _, tc := range cases {
		t.Run(tc.task.String()+"/"+tc.alg, func(t *testing.T) {
			res, err := Run(tc.alg, Setup{
				Task: tc.task, NumServers: 2, NumClients: 8, NonIIDLabels: 2,
				Seed: 7, MaxUpdates: 64, EvalEvery: 8, Horizon: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			final := res.Trace.Final()
			got := oracleBits{
				loss:      math.Float64bits(final.Loss),
				acc:       math.Float64bits(final.Acc),
				finalTime: math.Float64bits(res.FinalTime),
				updates:   res.Updates,
				trace:     traceHash(res),
			}
			if got != tc.want {
				t.Errorf("numeric behaviour moved (loss %v acc %v updates %d t %v):\n got  oracleBits{%#x, %#x, %#x, %d, %#x}\n want oracleBits{%#x, %#x, %#x, %d, %#x}",
					final.Loss, final.Acc, res.Updates, res.FinalTime,
					got.loss, got.acc, got.finalTime, got.updates, got.trace,
					tc.want.loss, tc.want.acc, tc.want.finalTime, tc.want.updates, tc.want.trace)
			}
		})
	}
}

func traceHash(res *Result) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range res.Trace {
		put(math.Float64bits(p.Time))
		put(uint64(p.Updates))
		put(math.Float64bits(p.Loss))
		put(math.Float64bits(p.Acc))
	}
	return h.Sum64()
}
