// Package sinkpassivity seeds violations of the obs.Sink passivity
// contract: a sink that mutates package-level state and one that calls
// back into the protocol core, next to a compliant sink that only records
// into its own fields.
package sinkpassivity

import (
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

var hits int

// ChattySink breaks passivity twice: it counts emissions in a package
// global and re-drives the server core from inside Emit.
type ChattySink struct {
	core *spyker.ServerCore
	n    int
}

// Enabled implements obs.Sink.
func (c *ChattySink) Enabled() bool { return true }

// Emit implements obs.Sink.
func (c *ChattySink) Emit(e obs.Event) {
	hits++                                             // want `writes package-level state sinkpassivity\.hits`
	c.n++                                              // own field: the sink's business
	c.core.HandleAge(e.Peer, e.Age, ring.Membership{}) // want `calls back into .*internal/spyker`
}

// QuietSink is the compliant shape: records into its own state only.
type QuietSink struct{ events []obs.Event }

// Enabled implements obs.Sink.
func (q *QuietSink) Enabled() bool { return true }

// Emit implements obs.Sink.
func (q *QuietSink) Emit(e obs.Event) { q.events = append(q.events, e) }
