package experiments

import (
	"fmt"
	"math"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
)

// decayFold is what one quadModel run says about Alg. 1's weights and the
// decay: b is the bias of the servers' mean model x̄ toward the clients'
// rate-weighted optimum, ⟨x̄ − c_u, c_r − c_u⟩ / ‖c_r − c_u‖², where c_u is
// the mean of the client optima c_k and c_r their mean weighted by each
// client's merged updates u_k — 0 is unbiased, 1 fully rate-weighted — and
// dist is ‖x̄ − c_u‖/√n, the root-mean-square distance to the unbiased one.
type decayFold struct{ b, dist float64 }

// foldDecay runs alg on the known-answer deployment of seed and folds it.
func foldDecay(t *testing.T, alg string, seed int64) decayFold {
	setup := baseSetup(48, seed)
	setup.TrainDelayStd = 0.060
	setup.Horizon = 60
	var env *fl.Env
	res, err := runPrepared(alg, setup, func(e *fl.Env) {
		useQuadModel(e)
		env = e
	})
	if err != nil {
		t.Fatal(err)
	}
	cu := make([]float64, quadDim)
	cr := make([]float64, quadDim)
	var total float64
	for ci := range env.Clients {
		c := env.NewModel(fl.ClientModelSeed(env.Seed, ci)).(*quadModel).optimum()
		u := res.ClientUpdateCounts[ci]
		total += u
		for i, v := range c {
			cu[i] += v / float64(len(env.Clients))
			cr[i] += u * v
		}
	}
	mean := make([]float64, quadDim)
	for _, core := range res.cores {
		for i, v := range core.Params() {
			mean[i] += v / float64(len(res.cores))
		}
	}
	var dot, spread, dist float64
	for i := range cu {
		r := cr[i]/total - cu[i]
		x := mean[i] - cu[i]
		dot += x * r
		spread += r * r
		dist += x * x
	}
	return decayFold{b: dot / spread, dist: math.Sqrt(dist / quadDim)}
}

// decayEpsilon bounds dist with the decay on: the servers' mean model ends
// within 0.03 per coordinate (RMS) of the unbiased optimum c_u, whose
// clients' optima spread about 0.29 around it. Without the decay the fold
// reads 0.021–0.051 at these seeds, past the bound at four of five.
const decayEpsilon = 0.03

// TestDecayRemovesRateBias is a known-answer check of Alg. 1's weights and
// the learning-rate decay (Sec. 4.1: the decay damps fast clients so that
// server models do not become biased). On quadModel every client's optimum
// c_k is known, so the bias toward fast clients is a number: with 48
// clients of strongly mixed speed (N(150 ms, 60 ms)) for 60 virtual
// seconds, the decay must at least halve b against the same run without
// it, and bring the servers within decayEpsilon of c_u — each on at least
// four of five seeds. A change to StalenessWeight, DecayRate, the
// server-side damping or ServerAggWeight that lets fast clients pull the
// model again fails here, whatever the goldens say. The ten runs are
// parallel subtests.
func TestDecayRemovesRateBias(t *testing.T) {
	const seeds = 5
	var folds [2][seeds]decayFold
	algs := [2]string{"spyker", "spyker-nodecay"}
	t.Run("runs", func(t *testing.T) {
		for a, alg := range algs {
			for i := range seeds {
				t.Run(fmt.Sprintf("%s/seed%d", alg, i+1), func(t *testing.T) {
					t.Parallel()
					folds[a][i] = foldDecay(t, alg, int64(i+1))
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	halved, near := 0, 0
	for i := range seeds {
		d, n := folds[0][i], folds[1][i]
		t.Logf("seed %d: b %.3f with decay, %.3f without (ratio %.3f); dist %.4f with decay, %.4f without",
			i+1, d.b, n.b, d.b/n.b, d.dist, n.dist)
		if d.b <= 0.5*n.b {
			halved++
		}
		if d.dist < decayEpsilon {
			near++
		}
	}
	if halved < seeds-1 {
		t.Errorf("b(spyker) <= 0.5*b(spyker-nodecay) held at %d of %d seeds, want at least %d: the decay no longer removes the bias toward fast clients",
			halved, seeds, seeds-1)
	}
	if near < seeds-1 {
		t.Errorf("||mean server model - c_u||/sqrt(n) < %v held at %d of %d seeds, want at least %d: with the decay the servers no longer end near the unbiased optimum",
			decayEpsilon, near, seeds, seeds-1)
	}
}
