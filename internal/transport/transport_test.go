package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/obs"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = r.c.Close()
	})
	return client, r.c
}

// memConn is a net.Conn over memory: reads drain in, writes append to out
// and are counted, so a test sees the exact octets a Conn puts on the wire
// and can feed it arbitrary ones.
type memConn struct {
	in     bytes.Buffer
	out    bytes.Buffer
	writes int
}

func (c *memConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { c.writes++; return c.out.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// encode writes m's frame into b, which is exactly MsgWireBytes(m) long:
// the reference wire image, Params converted word by word on either
// backend.
func encode(b []byte, m *Msg) {
	encodeHeader(b, m, len(b)-headerSize)
	encodeTail(putFloats(b[headerSize:], m.Params), m)
}

// frame is m's wire image.
func frame(m *Msg) []byte {
	b := make([]byte, MsgWireBytes(m))
	encode(b, m)
	return b
}

// recvBytes decodes data on a fresh connection, bounded when dim >= 0.
func recvBytes(data []byte, dim, ring int) (*Msg, error) {
	mc := &memConn{}
	mc.in.Write(data)
	c := NewConn(mc)
	if dim >= 0 {
		c.Bound(dim, ring)
	}
	return c.Recv()
}

// oneOfEachKind is a valid frame of every kind with every field the
// runtime puts on it.
func oneOfEachKind() []*Msg {
	return []*Msg{
		{Kind: KindHello, From: 3, Bid: 1},
		{Kind: KindClientUpdate, From: 3, Params: []float64{1.5, -2.5, 0, 4}, Age: 7,
			UID: obs.UpdateUID(3, 9)},
		{Kind: KindModelReply, From: 0, Params: []float64{0.1, 0.2, 0.3, 0.4}, Age: 8, LR: 0.05},
		{Kind: KindServerModel, From: 1, Params: []float64{9, 8, 7, 6}, Age: 100.5, Bid: 4,
			UID:   obs.RoundUID(1, 4, 2),
			Epoch: 2, Members: []int{0, 1, 2}, Addrs: []string{"127.0.0.1:7000", "", "[::1]:7002"}},
		{Kind: KindAge, From: 2, Age: 55, Epoch: 2, Members: []int{0, 1, 2}, Addrs: []string{"a:1", "b:2", "c:3"}},
		{Kind: KindToken, From: 0, Bid: 9, Ages: []float64{1, 2, 3}, UID: obs.RoundUID(0, 9, 0),
			Epoch: 2, Members: []int{0, 1, 2}, Addrs: []string{"a:1", "b:2", "c:3"}},
		{Kind: KindShutdown, From: 0},
		{Kind: KindJoinRequest, Addrs: []string{"10.0.0.7:7003"}},
		{Kind: KindJoinReply, From: 0, Bid: 3, Epoch: 3, Members: []int{0, 1, 2, 3},
			Addrs: []string{"a:1", "b:2", "c:3", "d:4"}, Blob: []byte("state snapshot")},
	}
}

// TestRoundTrip sends a table of frames over a real socket into ONE
// reused target Msg, so it also proves that nothing of a frame survives
// into the next: every field is assigned on every decode. Equality is
// taken on the wire image, which is bit-exact (-0 and denormals
// included).
func TestRoundTrip(t *testing.T) {
	msgs := append(oneOfEachKind(),
		&Msg{Kind: KindClientUpdate, From: -1, Bid: -7, Epoch: -2, Age: -3.5,
			Params: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308}},
		&Msg{Kind: KindToken, From: math.MinInt64, Bid: math.MaxInt64, Ages: []float64{math.Copysign(0, -1)},
			Members: []int{-5, math.MaxInt64}, UID: -1},
		&Msg{Kind: KindAge, Members: []int{0, 1}, Addrs: []string{"", ""}},
		&Msg{Kind: KindJoinRequest, Addrs: []string{strings.Repeat("x", maxAddr)}},
		&Msg{Kind: KindJoinReply, Blob: make([]byte, 70_000)},
		&Msg{Kind: KindAge, From: 2, Age: 55}, // bare, after frames that set everything
	)
	client, server := pipePair(t)
	go func() {
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				return
			}
		}
	}()
	var got Msg
	for i, want := range msgs {
		if err := server.RecvInto(&got); err != nil {
			t.Fatalf("frame %d (%v): %v", i, want.Kind, err)
		}
		if !bytes.Equal(frame(&got), frame(want)) {
			t.Fatalf("frame %d (%v): got %+v, want %+v", i, want.Kind, got, *want)
		}
		// Empty control-plane vectors decode to nil: a frame without a
		// membership header must read as ring.Membership's zero value.
		if len(want.Members) == 0 && got.Members != nil || len(want.Ages) == 0 && got.Ages != nil ||
			len(want.Addrs) == 0 && got.Addrs != nil || len(want.Blob) == 0 && got.Blob != nil {
			t.Fatalf("frame %d (%v): empty vectors must decode to nil: %+v", i, want.Kind, got)
		}
	}
}

// TestDecodedSliceOwnership pins the rule receivers rely on: Params reuse
// the target's backing array, while Ages, Members, Addrs and Blob of an
// earlier frame are never written again.
func TestDecodedSliceOwnership(t *testing.T) {
	first := &Msg{Kind: KindToken, Ages: []float64{1, 2}, Members: []int{0, 1}, Addrs: []string{"a:1", "b:2"},
		Params: []float64{1, 2}, Blob: []byte("one")}
	second := &Msg{Kind: KindToken, Ages: []float64{8, 9}, Members: []int{3, 4}, Addrs: []string{"c:3", "d:4"},
		Params: []float64{3, 4}, Blob: []byte("two")}
	mc := &memConn{}
	mc.in.Write(frame(first))
	mc.in.Write(frame(second))
	c := NewConn(mc)
	var m Msg
	if err := c.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	kept := m
	if err := c.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	if &kept.Params[0] != &m.Params[0] {
		t.Error("Params must reuse the target's backing array")
	}
	if kept.Ages[0] != 1 || kept.Members[0] != 0 || kept.Addrs[0] != "a:1" || string(kept.Blob) != "one" {
		t.Errorf("a later decode wrote over retained slices: %+v", kept)
	}
}

func TestConcurrentSendsDoNotInterleave(t *testing.T) {
	client, server := pipePair(t)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Frames of different lengths, so an interleaved write
				// would also break the framing of what follows.
				m := &Msg{Kind: KindAge, From: g, Age: float64(i), Members: make([]int, g)}
				if err := client.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	next := make(map[int]float64)
	for i := 0; i < 4*n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != KindAge || len(m.Members) != m.From {
			t.Fatalf("corrupted frame: %+v", m)
		}
		// Per-sender FIFO: ages from one goroutine arrive in order.
		if m.Age != next[m.From] {
			t.Fatalf("sender %d out of order: got %v want %v", m.From, m.Age, next[m.From])
		}
		next[m.From]++
	}
	wg.Wait()
}

func TestRecvAfterCloseFails(t *testing.T) {
	client, server := pipePair(t)
	_ = client.Close()
	if _, err := server.Recv(); err == nil {
		t.Error("Recv on closed peer should fail")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

func TestKindString(t *testing.T) {
	for k := KindHello; k <= KindJoinReply; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind String")
	}
}

// TestLargeModelPayload pushes a realistic full-size model frame (100k
// float64 parameters, 800 KB) through a socket, which delivers it in
// several reads.
func TestLargeModelPayload(t *testing.T) {
	client, server := pipePair(t)
	params := make([]float64, 100_000)
	for i := range params {
		params[i] = float64(i) * 0.001
	}
	go func() {
		_ = client.Send(&Msg{Kind: KindServerModel, From: 1, Params: params, Age: 5, Bid: 2})
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params) != len(params) {
		t.Fatalf("payload truncated: %d of %d", len(got.Params), len(params))
	}
	for i := range params {
		if got.Params[i] != params[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestMsgWireBytes: MsgWireBytes is the frame's size, so it must equal
// the octets counted on the net.Conn under the codec, for every kind. On a
// plain net.Conn a frame is one Write without Params and at most three
// (header, Params, tail) with them; on a TCP connection it is one vectored
// write and no Write at all.
func TestMsgWireBytes(t *testing.T) {
	for _, m := range oneOfEachKind() {
		mc := &memConn{}
		if err := NewConn(mc).Send(m); err != nil {
			t.Fatal(err)
		}
		if got, want := MsgWireBytes(m), mc.out.Len(); got != want {
			t.Errorf("MsgWireBytes(%v) = %d, the wire carried %d", m.Kind, got, want)
		}
		most := 1
		if len(m.Params) > 0 {
			most = 3
		}
		if mc.writes > most {
			t.Errorf("%v frame took %d writes, want at most %d", m.Kind, mc.writes, most)
		}
	}
	if got, want := MsgWireBytes(&Msg{Kind: KindClientUpdate, Params: make([]float64, 16384)}), 76+8*16384; got != want {
		t.Errorf("a D=16384 update is %d bytes, want %d", got, want)
	}

	client, far := pipePair(t)
	tcp := &tcpWrites{TCPConn: client.raw.(*net.TCPConn)}
	near := NewConn(tcp)
	for _, m := range oneOfEachKind() {
		tcp.writes = 0
		if err := near.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := far.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame(got), frame(m)) {
			t.Errorf("%v frame over TCP: got %+v, want %+v", m.Kind, *got, *m)
		}
		if want := 1 - min(len(m.Params), 1); tcp.writes != want {
			t.Errorf("%v frame over TCP took %d Writes, want %d (Params leave by writev)", m.Kind, tcp.writes, want)
		}
	}
}

// tcpWrites counts the Write calls on a TCP connection. Embedding the
// *net.TCPConn keeps its vectored-write method, so a net.Buffers written
// to it still leaves by writev, past Write.
type tcpWrites struct {
	*net.TCPConn
	writes int
}

func (c *tcpWrites) Write(p []byte) (int, error) { c.writes++; return c.TCPConn.Write(p) }

// TestParamsCrossTheWireBitForBit is the differential test of the two
// Params backends against the word-by-word reference (encode): for a frame
// of every kind carrying awkward words, what Send puts on the wire is the
// reference image byte for byte, both receive paths (a target that owns
// the capacity, and a fresh one) give the words back bit for bit, and both
// refuse NaN and ±Inf wherever in Params they sit.
func TestParamsCrossTheWireBitForBit(t *testing.T) {
	awkward := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308, 1.5, -2.5, 0} // 9 words: both unrolled loops and their remainders
	sent := func(m *Msg) []byte {
		t.Helper()
		mc := &memConn{}
		if err := NewConn(mc).Send(m); err != nil {
			t.Fatal(err)
		}
		return mc.out.Bytes()
	}
	// Both ways a body is read, each into a target of its own.
	decode := func(data []byte, check func(how string, m *Msg, err error)) {
		for how, m := range map[string]*Msg{"in place": {Params: make([]float64, len(awkward)+3)}, "fresh target": {}} {
			mc := &memConn{}
			mc.in.Write(data)
			check(how, m, NewConn(mc).RecvInto(m))
		}
	}
	for _, m := range oneOfEachKind() {
		m.Params = append([]float64(nil), awkward...)
		want := frame(m)
		if got := sent(m); !bytes.Equal(got, want) {
			t.Fatalf("%v: Send wrote\n%x\nthe reference image is\n%x", m.Kind, got, want)
		}
		decode(want, func(how string, got *Msg, err error) {
			if err != nil || len(got.Params) != len(awkward) {
				t.Fatalf("%v, %s: %d words, error %v", m.Kind, how, len(got.Params), err)
			}
			for i, v := range got.Params {
				if math.Float64bits(v) != math.Float64bits(awkward[i]) {
					t.Errorf("%v, %s: word %d is %x, want %x", m.Kind, how, i, math.Float64bits(v), math.Float64bits(awkward[i]))
				}
			}
			if !bytes.Equal(frame(got), want) {
				t.Errorf("%v, %s: got %+v, want %+v", m.Kind, how, *got, *m)
			}
		})
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range []int{0, len(awkward) / 2, len(awkward) - 1} {
				copy(m.Params, awkward)
				m.Params[at] = bad
				want := frame(m)
				if got := sent(m); !bytes.Equal(got, want) {
					t.Fatalf("%v with %v at %d: Send wrote\n%x\nthe reference image is\n%x", m.Kind, bad, at, got, want)
				}
				decode(want, func(how string, _ *Msg, err error) {
					if !errors.Is(err, errNonFinite) {
						t.Errorf("%v with %v at %d, %s: got %v, want %v", m.Kind, bad, at, how, err, errNonFinite)
					}
				})
			}
		}
	}
}

// TestSteadyStateAllocatesNothing pins the path every update takes twice:
// once the buffers have grown, sending and receiving a client-update frame
// allocates nothing — the net.Buffers the frame leaves as included.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	mc := &memConn{}
	mc.in.Grow(1 << 20)
	c := NewConn(&loopConn{mc})
	out := &Msg{Kind: KindClientUpdate, From: 3, Params: make([]float64, 16384), Age: 7,
		UID: obs.UpdateUID(3, 9)}
	var in Msg
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Send(out); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvInto(&in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Send+RecvInto allocates %v times per frame, want 0", allocs)
	}
	if len(in.Params) != len(out.Params) || in.UID != out.UID {
		t.Errorf("frame corrupted: %d params, uid %v", len(in.Params), in.UID)
	}
}

// TestRecvIntoAllocations pins what RecvInto allocates on each of its
// paths, on one connection that has received the same frame before: a
// frame of every kind into a target that already holds a model, a model
// frame into a target that holds none, and every refused frame but the
// truncated body (whose count differs between the two backends).
func TestRecvIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	want := map[string]float64{
		// What decodeTail hands the receiver to keep: the Members, the
		// address section's one string and the Addrs slice over it, the
		// Ages, the Blob.
		"server-model": 3, "age": 3, "token": 4, "join-request": 2, "join-reply": 4,
		// The connection's first 64 KiB body buffer, given up with the
		// read that failed.
		"declared body never sent": 1,
		// The Ages, made before the check that refuses them; the Members
		// and the address string and slice, made before the walk over
		// the section that refuses it.
		"non-finite token age": 1, "address overruns its section": 4, "addresses under-fill their section": 4,
	}
	type row struct {
		name    string
		data    []byte
		fresh   bool // the target holds no Params
		bounded bool // the connection is bound to a 4-word model and a 3-slot ring
		allocs  float64
	}
	var rows []row
	for _, m := range oneOfEachKind() {
		rows = append(rows, row{m.Kind.String(), frame(m), false, false, want[m.Kind.String()]})
	}
	for _, c := range malformedFrames() {
		if c.name != "truncated body" {
			rows = append(rows, row{c.name, c.data, false, false, want[c.name]})
		}
	}
	update := oneOfEachKind()[1]
	rows = append(rows,
		row{"bounded, within bounds", frame(update), false, true, 0},
		row{"bounded, long model", frame(&Msg{Kind: KindClientUpdate, Params: make([]float64, 5)}), false, true, 0},
		row{"bounded, ring past the bound", frame(oneOfEachKind()[8]), false, true, 0},
		// The Params.
		row{"small model, empty target", frame(update), true, false, 1},
		// The Params and the body buffer, grown to 64 KiB and then
		// 128 KiB as the body arrives, and dropped after the frame.
		row{"16384-word model, empty target", frame(&Msg{Kind: KindClientUpdate, Params: make([]float64, 16384)}), true, false, 3},
	)
	for _, r := range rows {
		mc := &memConn{}
		mc.in.Grow(len(r.data))
		c := NewConn(mc)
		if r.bounded {
			c.Bound(4, 3)
		}
		in := Msg{Params: make([]float64, 0, 16384)}
		allocs := testing.AllocsPerRun(20, func() {
			mc.in.Reset()
			mc.in.Write(r.data)
			if r.fresh {
				in.Params = nil
			}
			_ = c.RecvInto(&in)
		})
		if allocs != r.allocs {
			t.Errorf("%s: RecvInto allocates %v times per frame, want %v", r.name, allocs, r.allocs)
		}
	}
}

// TestSuppliedParams: on a bounded connection with a supplier, a model
// frame into a target without Params takes them from the supplier, asked
// once for the bound dimension, and is read into them in place: no other
// allocation, no staging of the body. A frame refused from its header
// asks for nothing, and one refused for a NaN leaves the supplied buffer
// in the target, its owner's to release.
func TestSuppliedParams(t *testing.T) {
	const dim = 16384
	supplied := make([]float64, dim)
	var asked []int
	mc := &memConn{}
	c := NewConn(mc)
	c.Bound(dim, 3)
	c.Supply(func(n int) []float64 {
		asked = append(asked, n)
		return supplied
	})
	update := &Msg{Kind: KindClientUpdate, From: 3, Params: make([]float64, dim), Age: 7}
	update.Params[dim-1] = 2.5
	data := frame(update)
	mc.in.Grow(len(data))
	asked = make([]int, 0, 64)
	var in Msg
	recv := func(b []byte) error {
		mc.in.Reset()
		mc.in.Write(b)
		in.Params = nil
		return c.RecvInto(&in)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := recv(data); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("a supplied model frame allocates %v times, want 0", allocs)
	}
	if len(asked) != 21 {
		t.Errorf("the supplier was asked %d times for 21 frames", len(asked))
	}
	for _, n := range asked {
		if n != dim {
			t.Fatalf("the supplier was asked for %d words, want %d", n, dim)
		}
	}
	if &in.Params[0] != &supplied[0] || in.Params[dim-1] != 2.5 {
		t.Error("the frame was not read into the supplied Params")
	}

	asked = asked[:0]
	for _, m := range []*Msg{
		{Kind: KindClientUpdate, Params: make([]float64, dim+1)},
		{Kind: KindToken, Bid: 2, Ages: []float64{1, 2}},
	} {
		if err := recv(frame(m)); len(asked) != 0 {
			t.Errorf("%v frame of %d params (err %v): the supplier was asked for %v", m.Kind, len(m.Params), err, asked)
		}
	}
	update.Params[5] = math.NaN()
	if err := recv(frame(update)); !errors.Is(err, errNonFinite) {
		t.Fatalf("a NaN parameter: got %v, want %v", err, errNonFinite)
	}
	if len(asked) != 1 || len(in.Params) != dim || &in.Params[0] != &supplied[0] {
		t.Errorf("a frame refused for a NaN: supplier asked %v, target holds %d params, supplied ones %v", asked, len(in.Params), len(in.Params) > 0 && &in.Params[0] == &supplied[0])
	}
}

// loopConn writes into the buffer it reads from.
type loopConn struct{ *memConn }

func (c *loopConn) Write(p []byte) (int, error) { return c.in.Write(p) }

func TestSendRefuses(t *testing.T) {
	c := NewConn(&memConn{})
	for _, m := range []*Msg{
		{},
		{Kind: KindJoinReply + 1},
		{Kind: KindJoinRequest, Addrs: []string{strings.Repeat("x", maxAddr+1)}},
	} {
		if err := c.Send(m); err == nil {
			t.Errorf("Send(%v) succeeded", m.Kind)
		}
	}
}

// malformed is one way to break a valid frame; the fuzz corpus and the
// reject table share the list.
type malformed struct {
	name   string
	reason *FrameError // nil: an I/O error (the stream ends early)
	data   []byte
}

func malformedFrames() []malformed {
	le := func(b []byte, off int, v uint32) []byte {
		b = append([]byte(nil), b...)
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return b
	}
	update := frame(&Msg{Kind: KindClientUpdate, From: 3, Params: []float64{1, 2, 3, 4}, Age: 7, LR: 0.1})
	token := frame(&Msg{Kind: KindToken, Bid: 9, Ages: []float64{1, 2, 3}, Members: []int{0, 1, 2}, Addrs: []string{"a:1", "b:2", "c:3"}})
	withByte := func(b []byte, off int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[off] = v
		return b
	}
	withFloat := func(b []byte, off int, v float64) []byte {
		b = append([]byte(nil), b...)
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[off+i] = byte(u >> (8 * i))
		}
		return b
	}
	// What the head of a gob stream of the old codec looks like.
	gob := append([]byte("\x7f\xff\x81\x03\x01\x01\x03Msg\x01\xff\x82\x00\x01\x0d\x01\x04Kind\x01\x04\x00\x01\x04From\x01\x04\x00"), make([]byte, 64)...)
	cases := []malformed{
		{"truncated header", nil, update[:40]},
		{"truncated body", nil, update[:len(update)-5]},
		{"declared body never sent", nil, le(le(frame(&Msg{Kind: KindJoinReply}), offBody, MaxBody), offBlob, MaxBody)},
		{"counts overrun the body", errCounts, le(update, offParams, 5)},
		{"counts under-fill the body", errCounts, append(le(update, offBody, 4*8+8), make([]byte, 8)...)},
		{"body over the cap", errTooLong, le(update, offBody, MaxBody+1)},
		{"gob stream", errVersion, gob},
		{"version 1", errVersion, withByte(update, offVersion, 1)},
		{"version 2", errVersion2, withByte(update, offVersion, 2)},
		{"kind 0", errKind, withByte(update, offKind, 0)},
		{"kind out of range", errKind, withByte(update, offKind, byte(KindJoinReply)+1)},
		{"reserved byte set", errKind, withByte(update, offZero, 1)},
		{"address overruns its section", errAddrs, withByte(token, len(token)-5, 200)},
		{"addresses under-fill their section", errAddrs, withByte(token, len(token)-5, 1)},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases,
			malformed{"non-finite Age", errNonFinite, withFloat(update, offAge, v)},
			malformed{"non-finite LR", errNonFinite, withFloat(update, offLR, v)},
			malformed{"non-finite parameter", errNonFinite, withFloat(update, headerSize+8*3, v)},
			malformed{"non-finite token age", errNonFinite, withFloat(token, headerSize+8, v)},
		)
	}
	return cases
}

// TestRecvRefuses: every malformed frame is an error, and one that
// arrived whole is a *FrameError naming the check it failed.
func TestRecvRefuses(t *testing.T) {
	for _, c := range malformedFrames() {
		_, err := recvBytes(c.data, -1, 0)
		var fe *FrameError
		switch {
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.reason == nil && (errors.As(err, &fe) || !(errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF))):
			t.Errorf("%s: got %v, want an end-of-stream error", c.name, err)
		case c.reason != nil && !errors.Is(err, c.reason):
			t.Errorf("%s: got %v, want %v", c.name, err, c.reason)
		}
	}
}

// TestBound: a bounded connection accepts what fits the model and the
// ring its owner holds and refuses everything else from the header.
func TestBound(t *testing.T) {
	const dim, ring = 4, 3
	for _, m := range oneOfEachKind() {
		_, err := recvBytes(frame(m), dim, ring)
		if m.Kind == KindJoinReply {
			// Four members on a ring bound of three, and a blob.
			if !errors.Is(err, errRing) {
				t.Errorf("%v: got %v, want %v", m.Kind, err, errRing)
			}
		} else if err != nil {
			t.Errorf("%v within bounds: %v", m.Kind, err)
		}
	}
	for _, c := range []struct {
		name string
		m    *Msg
		want *FrameError
	}{
		{"short model", &Msg{Kind: KindClientUpdate, Params: make([]float64, dim-1)}, errDimension},
		{"long model", &Msg{Kind: KindServerModel, Params: make([]float64, dim+1)}, errDimension},
		{"no model", &Msg{Kind: KindClientUpdate}, errDimension},
		{"model on an age frame", &Msg{Kind: KindAge, Params: make([]float64, dim)}, errDimension},
		{"long age vector", &Msg{Kind: KindToken, Ages: make([]float64, ring+1)}, errRing},
		{"long membership", &Msg{Kind: KindAge, Members: make([]int, ring+1)}, errRing},
		{"long address book", &Msg{Kind: KindAge, Addrs: make([]string, ring+1)}, errRing},
		{"blob", &Msg{Kind: KindAge, Blob: []byte{1}}, errRing},
	} {
		if _, err := recvBytes(frame(c.m), dim, ring); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		if _, err := recvBytes(frame(c.m), -1, 0); err != nil {
			t.Errorf("%s on an unbounded connection: %v", c.name, err)
		}
	}
}
