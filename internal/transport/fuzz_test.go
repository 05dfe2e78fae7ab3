package transport

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzRecvInto feeds arbitrary bytes to the decoder, on an unbounded
// connection and on one bounded the way a server bounds its inbound
// links, each with and without a supplier, into a fresh Msg and into one
// that owns a model's worth of Params the way a client's reused frame does
// (so that every way a body is read is driven). Whatever arrives, RecvInto
// must not panic; must not allocate beyond a constant multiple of the
// bytes supplied plus a constant — never in proportion to a length the
// header merely declares; must ask the supplier at most once, only on a
// bounded connection and only for the bound dimension, and leave what it
// gave in the target even when it refuses the frame; and a frame it
// accepts must re-encode to exactly the bytes it was decoded from.
//
// The multiple is 16: the body buffer doubles as bytes arrive (up to 4x
// what was received in all), the decoded vectors take 1x, and an empty
// address costs 2 bytes on the wire and a 16-byte string header in
// memory. The constant is the first body buffer.
func FuzzRecvInto(f *testing.F) {
	for _, m := range oneOfEachKind() {
		f.Add(frame(m))
	}
	for _, c := range malformedFrames() {
		f.Add(c.data)
	}
	const dim = 4
	supplied := make([]float64, dim)
	f.Fuzz(func(t *testing.T, data []byte) {
		for variant := 0; variant < 8; variant++ {
			bounded, owned, supplier := variant&1 != 0, variant&2 != 0, variant&4 != 0
			mc := &memConn{}
			mc.in.Write(data)
			c := NewConn(mc)
			if bounded {
				c.Bound(dim, 3)
			}
			var asked []int
			if supplier {
				asked = make([]int, 0, 2)
				c.Supply(func(n int) []float64 {
					asked = append(asked, n)
					return supplied
				})
			}
			var m Msg
			if owned {
				m.Params = make([]float64, dim)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.RecvInto(&m)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+firstRead+4096); got > limit {
				t.Fatalf("allocated %d bytes for %d supplied (limit %d, bounded=%v, owned=%v, supplier=%v, err=%v)", got, len(data), limit, bounded, owned, supplier, err)
			}
			if len(asked) > 1 || len(asked) == 1 && (!bounded || asked[0] != dim) {
				t.Fatalf("the supplier was asked for %v (bounded=%v, owned=%v, err=%v)", asked, bounded, owned, err)
			}
			if len(asked) == 1 && (cap(m.Params) == 0 || &m.Params[:1][0] != &supplied[0]) {
				t.Fatalf("the supplied Params are not in the target (owned=%v, err=%v)", owned, err)
			}
			if err != nil {
				continue
			}
			n := MsgWireBytes(&m)
			if n > len(data) || !bytes.Equal(frame(&m), data[:n]) {
				t.Fatalf("accepted frame does not re-encode to its bytes (bounded=%v, owned=%v, supplier=%v): %+v", bounded, owned, supplier, m)
			}
		}
	})
}
