package transport

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzRecvInto feeds arbitrary bytes to the decoder, on an unbounded
// connection and on one bounded the way a server bounds its inbound
// links, into a fresh Msg and into one that owns a model's worth of Params
// the way a server's reader does (so that both ways a body is read are
// driven). Whatever arrives, RecvInto must not panic; must not allocate
// beyond a constant multiple of the bytes supplied plus a constant —
// never in proportion to a length the header merely declares; and a frame
// it accepts must re-encode to exactly the bytes it was decoded from.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		for variant := 0; variant < 4; variant++ {
			bounded, owned := variant&1 != 0, variant&2 != 0
			mc := &memConn{}
			mc.in.Write(data)
			c := NewConn(mc)
			if bounded {
				c.Bound(4, 3)
			}
			var m Msg
			if owned {
				m.Params = make([]float64, 4)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.RecvInto(&m)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+firstRead+4096); got > limit {
				t.Fatalf("allocated %d bytes for %d supplied (limit %d, bounded=%v, owned=%v, err=%v)", got, len(data), limit, bounded, owned, err)
			}
			if err != nil {
				continue
			}
			n := MsgWireBytes(&m)
			if n > len(data) || !bytes.Equal(frame(&m), data[:n]) {
				t.Fatalf("accepted frame does not re-encode to its bytes (bounded=%v, owned=%v): %+v", bounded, owned, m)
			}
		}
	})
}
