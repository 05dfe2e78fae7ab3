//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package transport

import (
	"runtime"
	"testing"
)

// TestFirstModelFrameLeavesNoBigBuffer: a first model frame into an empty
// Msg takes the buffered path and grows the connection's body buffer to
// the whole frame; once its Params are out the connection lets that
// buffer go, and the next frame into the same Msg reads in place and grows
// nothing. (On the view backend only: the portable one converts every
// frame's Params through the body buffer, so it keeps one model-sized.)
func TestFirstModelFrameLeavesNoBigBuffer(t *testing.T) {
	mc := &memConn{}
	out := &Msg{Kind: KindModelReply, Params: make([]float64, 16384), Age: 3, Ages: []float64{1, 2}}
	mc.in.Write(frame(out))
	mc.in.Write(frame(out))
	c := NewConn(mc)
	var in Msg
	for i := 0; i < 2; i++ {
		if err := c.RecvInto(&in); err != nil {
			t.Fatal(err)
		}
		if len(in.Params) != len(out.Params) || len(in.Ages) != 2 {
			t.Fatalf("frame %d corrupted: %d params, ages %v", i, len(in.Params), in.Ages)
		}
		if cap(c.rbuf) > firstRead {
			t.Fatalf("after frame %d the connection holds a %d-byte body buffer, want at most %d", i, cap(c.rbuf), firstRead)
		}
	}
}

// TestSuppliedFirstFrameStagesNothing: on a bounded connection with a
// supplier, even a first model frame is read into its Params in place.
// Without one the connection stages the whole body, growing a buffer to
// 64 KiB and then 128 KiB, and allocates the Params besides; with one, all
// it allocates is the first buffer for the frame's tail.
func TestSuppliedFirstFrameStagesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	const dim = 16384
	supplied := make([]float64, dim)
	mc := &memConn{}
	mc.in.Write(frame(&Msg{Kind: KindServerModel, Params: make([]float64, dim), Ages: []float64{1, 2}}))
	c := NewConn(mc)
	c.Bound(dim, 3)
	c.Supply(func(int) []float64 { return supplied })
	var in Msg
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.RecvInto(&in)
	runtime.ReadMemStats(&after)
	if err != nil || len(in.Params) != dim {
		t.Fatalf("%d params, %v", len(in.Params), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > firstRead+1024 {
		t.Errorf("a supplied first frame allocated %d bytes, want at most %d", got, firstRead+1024)
	}
}
