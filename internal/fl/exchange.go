package fl

import (
	"sort"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
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

// exchange is the typed-event plumbing of an Env's clients: the handlers
// of an update's send and delivery and of a model's delivery, registered
// with the Env's simulator on first use, and the records those events
// carry. A record lives until the last delivery of its message — none when
// the network drops it, two when it duplicates it.
type exchange struct {
	send, deliver, model simulation.Kind
	uploads              simulation.Slab[upload]
	models               simulation.Slab[modelMsg]
}

// upload is a trained update from its client's send event to its
// delivery at the server it was addressed to when training started.
type upload struct {
	c        *SimClient
	server   int
	params   []float64
	meta     float64
	uid      obs.UID
	arrivals int // deliveries still to run
}

// modelMsg is a model on its way to a client, with what the client loads
// it with and what becomes of the vector once it has been delivered.
type modelMsg struct {
	c        *SimClient
	params   []float64
	meta, lr float64
	shared   *SharedVec // released after the delivery
	pooled   bool       // params go back to the pool after the delivery
	arrivals int
}

// wire returns the Env's exchange, registering its handlers on first use.
func (e *Env) wire() *exchange {
	if e.x == nil {
		e.x = &exchange{}
		e.x.send = e.Sim.Handle(e.sendUpdate)
		e.x.deliver = e.Sim.Handle(e.deliverUpdate)
		e.x.model = e.Sim.Handle(e.deliverModel)
	}
	return e.x
}

// sendUpdate is the event of upload i leaving its client.
func (e *Env) sendUpdate(i int) {
	u := e.x.uploads.At(i)
	src := e.ClientEndpoint(u.c.Spec.ID)
	dst := e.ServerEndpoint(u.server)
	u.arrivals = e.Net.Post(src, dst, e.ModelBytes, geo.ClientServer, u.uid,
		simulation.Job{Kind: e.x.deliver, Arg: i})
	if u.arrivals == 0 {
		e.x.uploads.Free(i)
	}
}

// deliverUpdate is the arrival of upload i at the server. A server may
// consume the vector it is delivered (Spyker replies in it), so every
// delivery of a duplicated upload but the last gets a private copy: each
// merges the client's update, none another delivery's reply.
func (e *Env) deliverUpdate(i int) {
	u := e.x.uploads.At(i)
	c, params, meta, uid := u.c, u.params, u.meta, u.uid
	dup := u.arrivals > 1
	if u.arrivals--; u.arrivals == 0 {
		e.x.uploads.Free(i)
	}
	// Join point 3 (see HandleModel): the server is about to read the
	// update.
	c.training.Join()
	if dup {
		params = append([]float64(nil), params...)
	}
	c.Deliver(c.Spec.ID, params, meta, uid)
}

// SendModel ships a pooled copy of server's model w to client c, who
// trains on it at rate lr and echoes meta with the update. HandleModel
// copies the parameters into the client's own model before it returns, so
// the copy is recycled on arrival.
func (e *Env) SendModel(server int, c *SimClient, w []float64, meta, lr float64) {
	reply := e.Pool.Get(len(w))
	reply.CopyFrom(w)
	e.sendModel(server, modelMsg{c: c, params: reply, meta: meta, lr: lr, pooled: true})
}

// SendShared ships the shared vector v to client c (see SendModel) and
// releases c's share of it on arrival.
func (e *Env) SendShared(server int, c *SimClient, v *SharedVec, meta, lr float64) {
	e.sendModel(server, modelMsg{c: c, params: v.Vec, meta: meta, lr: lr, shared: v})
}

// SendOwned ships params itself to client c (see SendModel): the caller
// neither recycles nor writes it afterwards.
func (e *Env) SendOwned(server int, c *SimClient, params []float64, meta, lr float64) {
	e.sendModel(server, modelMsg{c: c, params: params, meta: meta, lr: lr})
}

func (e *Env) sendModel(server int, m modelMsg) {
	x := e.wire()
	i, r := x.models.New()
	*r = m
	r.arrivals = e.Net.Post(e.ServerEndpoint(server), e.ClientEndpoint(m.c.Spec.ID), e.ModelBytes, geo.ClientServer, 0,
		simulation.Job{Kind: x.model, Arg: i})
	if r.arrivals == 0 {
		x.models.Free(i)
	}
}

// deliverModel is the arrival of model message i at its client.
func (e *Env) deliverModel(i int) {
	r := e.x.models.At(i)
	m := *r
	if r.arrivals--; r.arrivals == 0 {
		e.x.models.Free(i)
	}
	m.c.HandleModel(m.params, m.meta, m.lr)
	if m.arrivals > 1 {
		return
	}
	if m.shared != nil {
		m.shared.Release()
	}
	if m.pooled {
		e.Pool.Put(m.params)
	}
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
