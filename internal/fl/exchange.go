package fl

import (
	"sort"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/paramvec"
)

// DataShares returns each listed client's share of the set's training
// examples, len(Shard)/total, and that total — the d_k/d weights of a
// data-weighted average over the set.
func (e *Env) DataShares(clients []int) (shares map[int]float64, total int) {
	for _, ci := range clients {
		total += len(e.Clients[ci].Shard)
	}
	shares = make(map[int]float64, len(clients))
	for _, ci := range clients {
		shares[ci] = float64(len(e.Clients[ci].Shard)) / float64(total)
	}
	return shares, total
}

// SharedVec is one pooled vector read by several deliveries — a round's
// model on its way to every participant, a broadcast on its way to every
// peer. Each delivery calls Release when it is done reading; the last one
// returns the buffer to the pool. A plain countdown is enough because all
// deliveries run on the event loop.
type SharedVec struct {
	Vec       paramvec.Vec
	pool      *paramvec.Pool
	remaining int
}

// Share hands the pooled vector v to n deliveries. With none to make it is
// recycled at once.
func (e *Env) Share(v paramvec.Vec, n int) *SharedVec {
	if n <= 0 {
		e.Pool.Put(v)
		return nil
	}
	return &SharedVec{Vec: v, pool: e.Pool, remaining: n}
}

// Snapshot copies w into a pooled vector shared by n deliveries.
func (e *Env) Snapshot(w []float64, n int) *SharedVec {
	v := e.Pool.Get(len(w))
	v.CopyFrom(w)
	return e.Share(v, n)
}

// Release ends one delivery's use of the vector.
func (s *SharedVec) Release() {
	if s.remaining--; s.remaining == 0 {
		s.pool.Put(s.Vec)
	}
}

// SendModel ships a pooled copy of server's model w to client c, who
// trains on it at rate lr and echoes meta with the update. HandleModel
// copies the parameters into the client's own model before it returns, so
// the copy is recycled on arrival.
func (e *Env) SendModel(server int, c *SimClient, w []float64, meta any, lr float64) {
	reply := e.Pool.Get(len(w))
	reply.CopyFrom(w)
	e.Net.Send(e.ServerEndpoint(server), e.ClientEndpoint(c.Spec.ID), e.ModelBytes, geo.ClientServer, func() {
		c.HandleModel(reply, meta, lr)
		e.Pool.Put(reply)
	})
}

// SortedKeys returns m's keys in ascending order. Map iteration order is
// randomized by the runtime, and the walks of the simulated servers are
// order-sensitive twice over: network sends schedule discrete events (tie
// order = insertion order) and float accumulation is not associative, so a
// different walk order changes the result bits. Every map walk that feeds
// scheduling or aggregation goes through here.
func SortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	//lint:sorted keys are collected and sorted before any use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
