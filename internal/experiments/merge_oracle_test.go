package experiments

import (
	"math"
	"runtime"
	"testing"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
)

// signFlip makes client 1 a Byzantine one, so the vector its updates
// arrive in, and the merge replies in, is not its model's own.
func signFlip(e *fl.Env) { e.Clients[1].Byzantine = fl.ByzantineSignFlip }

// mergeBits is what one merge-heavy seeded run must reproduce: the oracle's
// bits plus the sync rounds the servers triggered.
type mergeBits struct {
	oracleBits
	syncs int
}

// TestMergeOffTheLoopCannotMoveResults pins Spyker runs in which the
// servers' client merges run off the event loop: four servers exchanging
// models in sync rounds, an evaluation (which reads every server model)
// every ten updates, and a 16k-parameter model. The rows were recorded on
// ba2e830, where every merge still ran on the loop, so a merge that is read
// before it is joined, or joined into the wrong server's model, fails here.
// The variants cover every path that reads the model besides the plain
// merge: a reply that is not the client's own vector (a Byzantine payload),
// the clip path, and a fault-armed run with periodic checkpoints, a crash
// and restart, an elastic join and an elastic leave.
// Each row runs plain and with the loop yielding around every update (see
// yieldingObserver); run it with -cpu 1,4. The servers' sigmoid weight
// calls tensor.Exp, so the rows hold with or without FMA and under
// GODEBUG=cpu.fma=off too.
func TestMergeOffTheLoopCannotMoveResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the recorded bits are amd64's; on %s the compiler may fuse x*y + z", runtime.GOARCH)
	}
	recovery := func() *fl.Hyper {
		h := fl.DefaultHyper(48, 4)
		h.TokenTimeout = 1
		h.SyncRetry = 0.5
		return &h
	}
	cases := []struct {
		name   string
		setup  func(*Setup)
		env    func(*fl.Env) // nil: the environment as BuildEnv made it
		faults int           // fault-plan events the run must apply
		want   mergeBits
	}{
		{"plain", nil, nil, 0, mergeBits{oracleBits{0x3fc58959ac0c33b2, 0x3feb642c528c8d06, 0x4011e15819b717eb, 1200, 0xcf64d25cc5d0e740}, 7}},
		{"sign-flip", nil, signFlip, 0, mergeBits{oracleBits{0x3fc9f16b37ac160d, 0x3fea9b744e37ffc5, 0x4011e15819b717eb, 1200, 0x8cda8a91abf34a80}, 7}},
		{"clip3+sign-flip", func(s *Setup) {
			h := fl.DefaultHyper(48, 4)
			h.RobustClipFactor = 3
			s.Hyper = &h
		}, signFlip, 0, mergeBits{oracleBits{0x3fc8edd9e880da43, 0x3feac89d6ef1c595, 0x4011e15819b717eb, 1200, 0x139ff4febcbec3bd}, 7}},
		{"faults", func(s *Setup) {
			s.Hyper = recovery()
			s.Faults = &fault.Plan{Seed: 9, CheckpointEvery: 0.5, Events: []fault.Event{
				{At: 1.5, Kind: fault.KindCrash, Server: 1, Duration: 1},
				{At: 2.5, Kind: fault.KindJoin, Server: 0},
				{At: 3.5, Kind: fault.KindLeave, Server: 2},
			}}
		}, nil, 4, mergeBits{oracleBits{0x3fc662fb94671aee, 0x3feb3c88a313dca7, 0x4014f93be4aec1c0, 1200, 0xd252f2af0314bc64}, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setup := Setup{
				Task: TaskMNIST, NumServers: 4, NumClients: 48, NonIIDLabels: 2, DatasetScale: 0.1,
				Seed: 5, MaxUpdates: 1200, EvalEvery: 10, Horizon: 60,
			}
			if tc.setup != nil {
				tc.setup(&setup)
			}
			prepare := func(e *fl.Env) {
				useQuadModel(e)
				if tc.env != nil {
					tc.env(e)
				}
			}
			arms := []struct {
				name string
				edit func(*fl.Env)
			}{
				{"plain", prepare},
				{"yields", func(e *fl.Env) {
					prepare(e)
					e.Observer = yieldingObserver{e.Observer}
				}},
			}
			for _, arm := range arms {
				res, err := runPrepared("spyker", setup, arm.edit)
				if err != nil {
					t.Fatal(err)
				}
				final := res.Trace.Final()
				got := mergeBits{oracleBits{
					loss:      math.Float64bits(final.Loss),
					acc:       math.Float64bits(final.Acc),
					finalTime: math.Float64bits(res.FinalTime),
					updates:   res.Updates,
					trace:     traceHash(res),
				}, 0}
				for _, c := range res.cores {
					got.syncs += c.SyncsTriggered()
				}
				if got.syncs == 0 || res.faultEvents != tc.faults {
					t.Errorf("%s: %d syncs, %d fault events applied; the row must sync and apply %d",
						arm.name, got.syncs, res.faultEvents, tc.faults)
				}
				if got != tc.want {
					t.Errorf("%s: results moved (loss %v acc %v updates %d t %v):\n got  mergeBits{oracleBits{%#x, %#x, %#x, %d, %#x}, %d}\n want mergeBits{oracleBits{%#x, %#x, %#x, %d, %#x}, %d}",
						arm.name, final.Loss, final.Acc, res.Updates, res.FinalTime,
						got.loss, got.acc, got.finalTime, got.updates, got.trace, got.syncs,
						tc.want.loss, tc.want.acc, tc.want.finalTime, tc.want.updates, tc.want.trace, tc.want.syncs)
				}
			}
		})
	}
}
