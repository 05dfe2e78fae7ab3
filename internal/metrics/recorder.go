package metrics

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// Recorder observes a running federated-learning algorithm and produces
// the paper's measurements. It evaluates the average of all server models
// every EvalEvery client updates (the paper reports global-model accuracy;
// averaging the server models is the natural global readout of a flat
// multi-server deployment and coincides with the single model of
// single-server baselines).
type Recorder struct {
	Sim       *simulation.Sim
	EvalModel fl.Model // shared evaluation instance; parameters overwritten
	EvalEvery int      // client updates between evaluations
	TargetAcc float64  // stop the simulation at this accuracy; 0 disables
	MaxUpdate int      // stop after this many updates; 0 disables

	TraceData     Trace
	QueueData     map[int]QueueTrace
	ClientUpdates map[int]int

	updates   int
	reached   bool
	reachedAt float64
	avg       []float64
}

var _ fl.Observer = (*Recorder)(nil)

// NewRecorder builds a recorder evaluating on evalModel.
func NewRecorder(sim *simulation.Sim, evalModel fl.Model, evalEvery int) *Recorder {
	if evalEvery <= 0 {
		evalEvery = 25
	}
	return &Recorder{
		Sim:           sim,
		EvalModel:     evalModel,
		EvalEvery:     evalEvery,
		QueueData:     make(map[int]QueueTrace),
		ClientUpdates: make(map[int]int),
	}
}

// ClientUpdateProcessed implements fl.Observer.
func (r *Recorder) ClientUpdateProcessed(now float64, _ int, client int, models func() [][]float64) {
	r.updates++
	r.ClientUpdates[client]++
	if r.updates%r.EvalEvery == 0 {
		r.evaluate(now, models())
	}
	if r.MaxUpdate > 0 && r.updates >= r.MaxUpdate {
		r.Sim.Stop()
	}
}

// QueueLength implements fl.Observer.
func (r *Recorder) QueueLength(now float64, server, length int) {
	r.QueueData[server] = append(r.QueueData[server], QueuePoint{Time: now, Length: length})
}

func (r *Recorder) evaluate(now float64, models [][]float64) {
	if len(models) == 0 {
		return
	}
	if r.avg == nil {
		r.avg = make([]float64, len(models[0]))
	}
	averageInto(r.avg, models)
	r.EvalModel.SetParams(r.avg)
	loss, acc := r.EvalModel.Evaluate()
	r.TraceData = append(r.TraceData, Point{Time: now, Updates: r.updates, Loss: loss, Acc: acc})
	if r.TargetAcc > 0 && acc >= r.TargetAcc && !r.reached {
		r.reached = true
		r.reachedAt = now
		r.Sim.Stop()
	}
}

// averageInto writes the equal-weight mean of models into avg: avg = 0,
// then avg += share*m for every model in order. Four models are folded per
// sweep over avg with the running element held in a register, so a
// deployment of N servers costs N/4 read-modify-write passes instead of N;
// each element still receives the same additions in the same order,
// starting from the same zero (the first fold starts from +0 rather than
// reading a zeroed avg), so the result is the bits of Zero followed by one
// AXPY per model. The sweep is tensor.MeanInto.
func averageInto(avg []float64, models [][]float64) {
	tensor.MeanInto(avg, models)
}

// Updates reports the total number of client updates observed.
func (r *Recorder) Updates() int { return r.updates }

// Reached reports whether the target accuracy was hit, and when.
func (r *Recorder) Reached() (bool, float64) { return r.reached, r.reachedAt }

// UpdateCountSamples returns the per-client update counts as float samples
// for the KDE of Fig. 10, ordered by client ID for determinism.
func (r *Recorder) UpdateCountSamples(numClients int) []float64 {
	out := make([]float64, 0, numClients)
	for c := 0; c < numClients; c++ {
		out = append(out, float64(r.ClientUpdates[c]))
	}
	return out
}
