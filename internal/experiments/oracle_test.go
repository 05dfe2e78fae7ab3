package experiments

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
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
// prints the new row in table syntax. The bits are amd64's, from either
// backend of internal/tensor (AVX2 assembly, or the portable loops that
// -tags purego forces): on architectures where the compiler fuses x*y + z
// into one rounding (arm64, ppc64le, s390x, riscv64) every kernel, old or
// new, gives other bits, so the test skips there instead of failing.
// Every exp and tanh on the path is the tree's own (tensor.Exp and
// tensor.Tanh), so one row set holds on every amd64 CPU, with or without
// FMA, and under GODEBUG=cpu.fma=off.
func TestCrossCommitOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ordering contract's bits are amd64's: on %s the Go compiler may fuse x*y + z "+
			"(it does on arm64, ppc64le, s390x and riscv64), so the portable kernels round differently", runtime.GOARCH)
	}
	cases := []struct {
		name  string
		task  Task
		alg   string
		setup func(*Setup)  // nil: the plain configuration
		env   func(*fl.Env) // nil: the environment as BuildEnv made it
		want  oracleBits
	}{
		{"mnist/spyker", TaskMNIST, "spyker", nil, nil, oracleBits{0x3ffebade72c54d91, 0x3fce4b17e4b17e4b, 0x3ff526fb3f2813b7, 64, 0x2f23f0f9f79083fa}},
		{"mnist/fedavg", TaskMNIST, "fedavg", nil, nil, oracleBits{0x3ffa0595c1c92dd1, 0x3fe1b4e81b4e81b5, 0x401308edb36781aa, 64, 0x222d4877a923c4d8}},
		{"cifar/spyker", TaskCIFAR, "spyker", nil, nil, oracleBits{0x3ffe809be2ad27ac, 0x3fd7e4b17e4b17e5, 0x3ff520d8e637b799, 64, 0x40bb7b5d9314238}},
		{"cifar/fedavg", TaskCIFAR, "fedavg", nil, nil, oracleBits{0x3ff676b52bcfeb5a, 0x3fe53a06d3a06d3a, 0x4013074af10546f5, 64, 0x614372cd3708a66e}},
		{"wiki/spyker", TaskWiki, "spyker", nil, nil, oracleBits{0x400af9c20d7dc32a, 0x3fc4514514514514, 0x3ff4b8041087ed39, 64, 0xa0ecbf2833f9aece}},
		{"wiki/fedavg", TaskWiki, "fedavg", nil, nil, oracleBits{0x400a6956ef2552a8, 0x3fc6fbefbefbefbf, 0x4012eb5673c55544, 64, 0x1bd3c37ad079bc26}},

		// Recorded on 6db5d83, the commit before the client-update handler
		// began to consume its vector and reply in it: the configurations
		// where that vector is not a view of the client's model (a
		// Byzantine payload, the private copy of a fault-armed run) or where
		// the merge is not the fused kernel (the clip path, which in 64
		// honest updates never clips and so must equal the plain row through
		// DiffInto+AxpyInto, and does clip the sign-flipped payload).
		{"mnist/spyker/sign-flip", TaskMNIST, "spyker", nil, func(e *fl.Env) {
			e.Clients[1].Byzantine = fl.ByzantineSignFlip
		}, oracleBits{0x40318e1e6cf6fb7e, 0x3fc999999999999a, 0x3ff526fb3f2813b7, 64, 0xbe7405e60660b1fa}},
		{"mnist/spyker/clip3", TaskMNIST, "spyker", func(s *Setup) {
			h := fl.DefaultHyper(8, 2)
			h.RobustClipFactor = 3
			s.Hyper = &h
		}, nil, oracleBits{0x3ffebade72c54d91, 0x3fce4b17e4b17e4b, 0x3ff526fb3f2813b7, 64, 0x2f23f0f9f79083fa}},
		{"mnist/spyker/clip3+sign-flip", TaskMNIST, "spyker", func(s *Setup) {
			h := fl.DefaultHyper(8, 2)
			h.RobustClipFactor = 3
			s.Hyper = &h
		}, func(e *fl.Env) {
			e.Clients[1].Byzantine = fl.ByzantineSignFlip
		}, oracleBits{0x40083a11fbaab289, 0x3fd28f5c28f5c28f, 0x3ff526fb3f2813b7, 64, 0x31eb7641bc0143e3}},
		{"mnist/spyker/faults", TaskMNIST, "spyker", func(s *Setup) {
			s.Faults = &fault.Plan{Seed: 3, Events: []fault.Event{
				{At: 0.2, Kind: fault.KindLinkDup, Src: fault.Any, Dst: fault.Any, Duration: 30, P: 0.5},
				{At: 0.6, Kind: fault.KindCrash, Server: 1, Duration: 0.3},
			}}
		}, nil, oracleBits{0x3fff6d7472fb460c, 0x3fd2c5f92c5f92c6, 0x40005ddc12007600, 64, 0xbc9d2869ecd6ac4f}},
		// Recorded on a00f3b8, the commit before every broadcast was pooled
		// and a record gave its share back when freed: a partition window,
		// lossy server links and a crash, so some broadcasts lose every
		// copy (14 of the run's 30) and others reach a down server.
		{"mnist/spyker/drops", TaskMNIST, "spyker", func(s *Setup) {
			h := fl.DefaultHyper(8, 2)
			h.HInter, h.TokenTimeout, h.SyncRetry = 0.3, 0.2, 0.1
			s.Hyper = &h
			s.Faults = &fault.Plan{Seed: 5, Events: []fault.Event{
				{At: 0.2, Kind: fault.KindPartition, Src: 0, Dst: 1, Duration: 0.3},
				{At: 0.2, Kind: fault.KindLinkDrop, Src: fault.Any, Dst: fault.Any, Duration: 30, P: 0.3},
				{At: 0.7, Kind: fault.KindCrash, Server: 1, Duration: 0.3},
			}}
		}, nil, oracleBits{0x40002840157a1ec1, 0x3fd7777777777777, 0x3fffa1053dae5e5c, 64, 0xafce260d4bab8db5}},

		// Recorded on 81b658e, the commit before the six DES glues moved
		// onto internal/fl's shared actor kit and FedAvg's server and
		// HierFAVG's edge became one round server: the four algorithms no
		// earlier row runs, and FedAsync once more on the LSTM task.
		{"mnist/fedasync", TaskMNIST, "fedasync", nil, nil, oracleBits{0x3ffd81005a4b7b7e, 0x3fd999999999999a, 0x40003b4b168db1e3, 64, 0xa8415873223605bd}},
		{"mnist/hierfavg", TaskMNIST, "hierfavg", nil, nil, oracleBits{0x3ff956d0dc32fa4b, 0x3fe23d70a3d70a3d, 0x40075a6c9a688dd8, 64, 0xe7bf4663e18913e}},
		{"mnist/sync-spyker", TaskMNIST, "sync-spyker", nil, nil, oracleBits{0x3ffed028a435d380, 0x3fcc28f5c28f5c29, 0x3ff526fb3f2813b7, 64, 0xd6598242b8a01d25}},
		// The plain row ends (1.3 virtual s) before the first 5 s exchange;
		// this one has several, so the synchronous exchange is pinned too.
		{"mnist/sync-spyker/period0.3", TaskMNIST, "sync-spyker", func(s *Setup) {
			h := fl.DefaultHyper(8, 2)
			h.SyncPeriod = 0.3
			s.Hyper = &h
		}, nil, oracleBits{0x3ffedd14b4d9843f, 0x3fca06d3a06d3a07, 0x40027543434baf29, 64, 0xd9a8ad6d011681a0}},
		{"mnist/fedbuff", TaskMNIST, "fedbuff", nil, nil, oracleBits{0x3ff76e6d87971575, 0x3fe2e147ae147ae1, 0x40003b4b168db1e3, 64, 0xdc9e34aca0a9aecc}},
		{"wiki/fedasync", TaskWiki, "fedasync", nil, nil, oracleBits{0x400a433590439a81, 0x3fc77df7df7df7df, 0x400011592dd31fca, 64, 0x8104498e7c13991a}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setup := Setup{
				Task: tc.task, NumServers: 2, NumClients: 8, NonIIDLabels: 2,
				Seed: 7, MaxUpdates: 64, EvalEvery: 8, Horizon: 60,
			}
			if tc.setup != nil {
				tc.setup(&setup)
			}
			res, err := oracleRun(tc.alg, setup, tc.env)
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

// oracleRun is Run, or — when the row edits the environment between
// BuildEnv and Build, which Setup cannot express — the fault-free part of
// Run spelled out around that edit.
func oracleRun(alg string, s Setup, edit func(*fl.Env)) (*Result, error) {
	if edit == nil {
		return Run(alg, s)
	}
	a, err := NewAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	env, rec, err := BuildEnv(s)
	if err != nil {
		return nil, err
	}
	edit(env)
	if err := a.Build(env); err != nil {
		return nil, err
	}
	final := env.Sim.Run(s.Horizon)
	return &Result{Trace: rec.TraceData, FinalTime: final, Updates: rec.Updates()}, nil
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
