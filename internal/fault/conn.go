package fault

import (
	"errors"
	"math/rand"
	"sync"

	"github.com/spyker-fl/spyker/internal/transport"
)

// ErrSevered is returned by Conn.Send after Sever: the link behaves like
// a cut cable — every send fails until the connection is rebuilt.
var ErrSevered = errors.New("fault: connection severed")

// Conn interposes send-side faults on a live transport connection. It
// implements transport.Sender, so it slips between a server's outbox and
// the wire: messages can be silently dropped with a set probability, or
// the link severed outright. The zero configuration forwards everything
// untouched. The live runtime's latency injector is
// live.Server.InjectLatency.
//
// Unlike the simulator's injector, a live Conn is subject to goroutine
// scheduling, so runs are not reproducible — it exists to exercise the
// same recovery paths under real concurrency.
type Conn struct {
	inner transport.Sender

	mu      sync.Mutex
	rng     *rand.Rand //spyker:guardedby(mu)
	dropP   float64    //spyker:guardedby(mu)
	severed bool       //spyker:guardedby(mu)
}

// WrapConn interposes a fault layer over inner. The seed feeds the
// private drop-probability generator.
func WrapConn(inner transport.Sender, seed int64) *Conn {
	return &Conn{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetDrop makes each subsequent Send vanish with probability p (the send
// reports success, the message never reaches the wire — a lossy link,
// not a broken one).
func (c *Conn) SetDrop(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropP = p
}

// Sever cuts the link: the underlying connection is closed and every
// later Send fails with ErrSevered.
func (c *Conn) Sever() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return nil
	}
	c.severed = true
	return c.inner.Close()
}

// Send implements transport.Sender.
func (c *Conn) Send(m *transport.Msg) error {
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return ErrSevered
	}
	drop := c.dropP > 0 && c.rng.Float64() < c.dropP
	c.mu.Unlock()
	if drop {
		return nil
	}
	return c.inner.Send(m)
}

// Close implements transport.Sender.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return nil
	}
	c.severed = true
	return c.inner.Close()
}
