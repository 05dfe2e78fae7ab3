package paramvec

import (
	"sync"
	"sync/atomic"
)

// Pool is a size-keyed free-list of parameter vectors backed by one
// sync.Pool per distinct length. Get returns a vector of exactly the
// requested length whose contents are UNSPECIFIED (callers must fully
// overwrite it — CopyFrom or Zero — before reading); Put recycles it.
//
// Ownership is strict: after Put, the caller must not touch the vector
// again, and a pooled buffer must never be reachable from two goroutines
// at once (the live runtime's race tests enforce this). The zero Pool is
// ready to use and safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes map[int]*class //spyker:guardedby(mu)

	live     atomic.Int64 // vectors handed out and not yet returned
	recycled atomic.Int64 // Gets served from the free-list rather than fresh
}

// class is the free-list of one vector length. A sync.Pool holds
// pointers, so a vector waits in full inside a *Vec box; empty parks the
// box from the Get that emptied it to the Put that needs one, so that
// returning a vector allocates no slice header. A class is allocated on
// its own: the runtime keeps every sync.Pool in use reachable for two GC
// cycles, and one embedded in Pool would keep Pool's owner (a whole
// live.Server) alive with it.
type class struct{ full, empty sync.Pool }

func (p *Pool) class(n int) *class {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.classes == nil {
		p.classes = make(map[int]*class)
	}
	cl, ok := p.classes[n]
	if !ok {
		cl = &class{}
		p.classes[n] = cl
	}
	return cl
}

// Get returns a vector of length n with unspecified contents.
func (p *Pool) Get(n int) Vec {
	var v Vec
	cl := p.class(n)
	if box, _ := cl.full.Get().(*Vec); box != nil {
		v, *box = *box, nil
		cl.empty.Put(box)
		p.recycled.Add(1)
	} else {
		v = make(Vec, n)
	}
	p.live.Add(1)
	return v
}

// Put returns v to the pool. v must have come from Get (any Pool instance
// works — classes are keyed purely by length) and must not be used
// afterwards. Putting a nil vector is a no-op.
func (p *Pool) Put(v Vec) {
	if v == nil {
		return
	}
	cl := p.class(len(v))
	box, _ := cl.empty.Get().(*Vec)
	if box == nil {
		box = new(Vec)
	}
	*box = v
	cl.full.Put(box)
	p.live.Add(-1)
}

// Live reports the number of vectors currently checked out.
func (p *Pool) Live() int64 { return p.live.Load() }

// Recycled reports how many Gets the free-list has served.
func (p *Pool) Recycled() int64 { return p.recycled.Load() }
