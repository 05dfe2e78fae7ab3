//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package transport

import "testing"

// TestFirstModelFrameLeavesNoBigBuffer: a first model frame into an empty
// Msg takes the buffered path and grows the connection's body buffer to
// the whole frame; once its Params are out the connection lets that
// buffer go, and the next frame into the same Msg reads in place and grows
// nothing. (On the view backend only: the portable one converts every
// frame's Params through the body buffer, so it keeps one model-sized.)
func TestFirstModelFrameLeavesNoBigBuffer(t *testing.T) {
	mc := &memConn{}
	out := &Msg{Kind: KindModelReply, Params: make([]float64, 16384), Age: 3, Trace: Trace{Front: []int64{1, 2}}}
	mc.in.Write(frame(out))
	mc.in.Write(frame(out))
	c := NewConn(mc)
	var in Msg
	for i := 0; i < 2; i++ {
		if err := c.RecvInto(&in); err != nil {
			t.Fatal(err)
		}
		if len(in.Params) != len(out.Params) || len(in.Trace.Front) != 2 {
			t.Fatalf("frame %d corrupted: %d params, front %v", i, len(in.Params), in.Trace.Front)
		}
		if cap(c.rbuf) > firstRead {
			t.Fatalf("after frame %d the connection holds a %d-byte body buffer, want at most %d", i, cap(c.rbuf), firstRead)
		}
	}
}
