package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// TestCheckpointWriteIsAtomic: a write that fails part-way leaves the
// previous checkpoint byte for byte and no temp file behind; one that
// succeeds replaces it whole and leaves nothing else in the directory.
func TestCheckpointWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	old := []byte("the previous checkpoint")
	if err := writeFileAtomic(path, func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("encoder failed")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of a new one")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	onlyFile(t, dir, path, old)

	fresh := []byte("a complete new checkpoint")
	if err := writeFileAtomic(path, func(w io.Writer) error { _, err := w.Write(fresh); return err }); err != nil {
		t.Fatal(err)
	}
	onlyFile(t, dir, path, fresh)
}

// onlyFile fails unless path is the one entry of dir and holds want.
func onlyFile(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s holds %q, want %q", path, got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// nopOut is a spyker.Outbound that sends nothing.
type nopOut struct{}

func (nopOut) ReplyClient(int, []float64, float64, float64)                     {}
func (nopOut) BroadcastModel([]float64, float64, int, obs.UID, ring.Membership) {}
func (nopOut) BroadcastAge(float64, ring.Membership)                            {}
func (nopOut) SendToken(spyker.Token, int)                                      {}

// postAdmission returns the token-holding server 0 of a three-server ring
// that has admitted server 3 and merged four client updates, with its
// snapshot: epoch 1, a member ID past the construction-time count, a held
// token and decay counters. The snapshot's weights
// also hold -0 and the smallest subnormal.
func postAdmission(t testing.TB) (*spyker.ServerCore, spyker.State) {
	t.Helper()
	cfg := spyker.Config{
		ID: 0, NumServers: 3, NumClients: 2,
		EtaServer: 0.6, Phi: 1.5, EtaA: 0.6, HInter: 5, HIntra: 350,
		ClientLR: 0.05, DecayEnabled: true, Beta: 1, EtaMin: 1e-6,
		TokenTimeout: 2, SyncRetry: 1,
	}
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 16)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	core := spyker.NewServerCore(cfg, w, true, nopOut{})
	if _, err := core.AdmitMember(3); err != nil {
		t.Fatal(err)
	}
	for k := range 4 {
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		core.HandleClientUpdate(k%2, w, core.Age(), 0)
	}
	var st spyker.State
	core.SnapshotInto(&st)
	st.W[0], st.W[1] = math.Copysign(0, -1), 5e-324
	return core, st
}

// checkpointOf restores a live server from st and returns the checkpoint
// it writes.
func checkpointOf(t testing.TB, st spyker.State) []byte {
	t.Helper()
	srv, err := NewServerFromCheckpoint("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var buf bytes.Buffer
	if err := srv.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameState fails unless got is want, with every float compared bit for
// bit (reflect.DeepEqual takes -0 for +0).
func sameState(t *testing.T, what string, got, want spyker.State) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v\nwant %+v", what, got, want)
	}
	sameBits := func(field string, a, b []float64) {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s: %s[%d] = %v, want %v", what, field, i, a[i], b[i])
			}
		}
	}
	sameBits("W", got.W, want.W)
	sameBits("Ages", got.Ages, want.Ages)
	sameBits("Age", []float64{got.Age, got.AgePrev}, []float64{want.Age, want.AgePrev})
	if want.Token != nil {
		sameBits("Token.Ages", got.Token.Ages, want.Token.Ages)
	}
}

// TestStateRoundTripsAreBitExact: a token holder's checkpoint on a
// post-admission ring, and the snapshot a sponsor ships a joiner, decode
// to the State that was encoded: model and ages to the bit,
// membership, token and counters equal.
func TestStateRoundTripsAreBitExact(t *testing.T) {
	sponsor, st := postAdmission(t)
	if st.Token == nil || st.Mem.Epoch != 1 || len(st.Updates) == 0 {
		t.Fatalf("the fixture is not a token holder on a post-admission ring: %+v", st)
	}
	got, err := ReadCheckpoint(bytes.NewReader(checkpointOf(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "checkpoint", got, st)

	joiner, err := sponsor.AdmitMember(4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&joiner)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeState(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "join snapshot", got, joiner)
	if _, err := spyker.RestoreServerCore(got, nopOut{}); err != nil {
		t.Fatalf("the joiner's snapshot does not restore: %v", err)
	}
}

// craftedGobMap is a gob stream of a State whose Updates map declares
// 5 000 000 entries and holds one: a type definition for a struct with the
// one field Updates map[int]int, then a 10-byte value message. A gob
// decoder sizes the map from the declared count before it reads an entry.
var craftedGobMap = []byte("\x1f\x7f\x03\x01\x01\x05State\x01\xff\x80\x00\x01\x01\x01\x07Updates\x01\xff\x82\x00\x00\x00" +
	"\x1b\xff\x81\x04\x01\x01\x0bmap[int]int\x01\xff\x82\x00\x01\x04\x01\x04\x00\x00" +
	"\x0a\xff\x80\x01\xfd\x4c\x4b\x40\x0e\x12\x00")

// sealed is body with its checksum line: a checkpoint whose JSON reaches
// decodeState.
func sealed(body []byte) []byte { return append(bytes.Clone(body), checksumLine(body)...) }

// malformedCheckpoint is a checkpoint body decodeState refuses.
type malformedCheckpoint struct {
	name string
	b    []byte
}

// malformedCheckpoints derives the refused bodies from the JSON body of a
// real checkpoint (which ends in "}\n").
func malformedCheckpoints(body []byte) []malformedCheckpoint {
	return []malformedCheckpoint{
		{"truncated", body[:len(body)/2]},
		{"gob stream", craftedGobMap},
		{"unknown field", append(bytes.Clone(body[:len(body)-2]), `,"Total":7}`...)},
		{"out of range", []byte(`{"Age":1e999}`)},
		{"trailing", append(bytes.Clone(body), `{}`...)},
		{"two values", append(bytes.Clone(body), body...)},
	}
}

// bodyOf is the JSON of checkpoint ckpt, its checksum line cut off.
func bodyOf(ckpt []byte) []byte { return ckpt[:len(ckpt)-len(checksumLine(nil))] }

// TestReadCheckpointRefusesMalformedInput: a checkpoint without its
// checksum line is an error, and so is a cut, foreign, extended or
// overflowing one, or one with bytes after it, with a valid checksum.
func TestReadCheckpointRefusesMalformedInput(t *testing.T) {
	_, st := postAdmission(t)
	body := bodyOf(checkpointOf(t, st))
	if _, err := ReadCheckpoint(bytes.NewReader(body)); err == nil {
		t.Error("no checksum: accepted")
	}
	for _, m := range malformedCheckpoints(body) {
		if _, err := ReadCheckpoint(bytes.NewReader(sealed(m.b))); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// refusesBitFlip fails unless ckpt with bit 5 of byte i flipped is
// refused, and checks that its JSON alone would have decoded.
func refusesBitFlip(t *testing.T, ckpt []byte, i int) {
	t.Helper()
	flipped := bytes.Clone(ckpt)
	flipped[i] ^= 0x20
	if _, err := decodeState(bytes.NewReader(bodyOf(flipped))); err != nil {
		t.Fatalf("the flip of %q is not a valid state: %v", ckpt[i], err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(flipped)); err == nil {
		t.Fatalf("a checkpoint with %q flipped to %q was accepted", ckpt[i], flipped[i])
	}
}

// TestReadCheckpointRefusesAFrontierByName: a checkpoint written before
// the merged-updates frontier left the protocol still holds a "Frontier"
// field. The strict decoder refuses it and names the field, so -resume
// does not carry such a checkpoint across the change.
func TestReadCheckpointRefusesAFrontierByName(t *testing.T) {
	_, st := postAdmission(t)
	body := bodyOf(checkpointOf(t, st))
	old := append(bytes.TrimSuffix(bytes.TrimSpace(body), []byte("}")), []byte(`,"Frontier":[4,0,0,0]}`+"\n")...)
	if _, err := ReadCheckpoint(bytes.NewReader(sealed(old))); err == nil || !strings.Contains(err.Error(), `"Frontier"`) {
		t.Fatalf("a checkpoint holding a frontier: %v, want a refusal naming \"Frontier\"", err)
	}
}

// TestRestoredServerMarksItsRestore: a server restored from a checkpoint
// emits one KindRestore naming its own snapshot when it is instrumented,
// and one that starts afresh emits none — the mark lineage resets the
// server's frontier at.
func TestRestoredServerMarksItsRestore(t *testing.T) {
	_, st := postAdmission(t)
	for _, restored := range []bool{true, false} {
		var srv *Server
		var err error
		if restored {
			srv, err = NewServerFromCheckpoint("127.0.0.1:0", st)
		} else {
			srv, err = NewServer(0, "127.0.0.1:0", st.Config, st.W, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(16)
		srv.Instrument(tr)
		srv.Close()
		var marks []obs.Event
		for _, e := range tr.Events() {
			if e.Kind == obs.KindRestore {
				marks = append(marks, e)
			}
		}
		switch {
		case restored && (len(marks) != 1 || marks[0].Node != 0 || marks[0].Peer != 0):
			t.Fatalf("restored server's restore marks: %+v, want one of s0's own snapshot", marks)
		case !restored && len(marks) != 0:
			t.Fatalf("fresh server emitted restore marks: %+v", marks)
		}
	}
}

// TestReadCheckpointRefusesFlippedSign: a negative weight's '-' flipped to
// '\r' is whitespace to JSON, so the weight would come back negated.
func TestReadCheckpointRefusesFlippedSign(t *testing.T) {
	_, st := postAdmission(t)
	ckpt := checkpointOf(t, st)
	w := bytes.Index(ckpt, []byte(`"W":[`))
	refusesBitFlip(t, ckpt, w+bytes.Index(ckpt[w:], []byte(",-"))+1)
}

// TestReadCheckpointRefusesFlippedKeyCase: "Age" flipped to "age" still
// names the Age field, since JSON keys match case-insensitively: the
// decode cannot see the flip.
func TestReadCheckpointRefusesFlippedKeyCase(t *testing.T) {
	_, st := postAdmission(t)
	ckpt := checkpointOf(t, st)
	refusesBitFlip(t, ckpt, bytes.Index(ckpt, []byte(`"Age":`))+1)
}

// TestReadCheckpointAllocationFollowsInput: the crafted gob stream, whose
// map declares 5 000 000 entries in 71 bytes, is refused with a valid
// checksum without allocating more than a constant multiple of its length.
func TestReadCheckpointAllocationFollowsInput(t *testing.T) {
	in := sealed(craftedGobMap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("the crafted gob stream was accepted")
	}
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+1<<20)
	if got > bound {
		t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(in), got, bound)
	}
}

// FuzzReadCheckpoint: whatever a checkpoint file holds, reading it and
// restoring a core from what it decodes to returns an error or a core,
// never a panic. A fuzz input is a checkpoint's JSON: it is read as it is
// and with its checksum line, which takes it past the checksum to
// decodeState and RestoreServerCore. The seeds are a real checkpoint of a
// token holder on a post-admission ring, that checkpoint bit-flipped, the
// malformed inputs above, and a snapshot whose one member is negative.
func FuzzReadCheckpoint(f *testing.F) {
	_, st := postAdmission(f)
	body := bodyOf(checkpointOf(f, st))
	flipped := bytes.Clone(body)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(body)
	f.Add(flipped)
	for _, m := range malformedCheckpoints(body) {
		f.Add(m.b)
	}
	f.Add([]byte(`{"Config":{"ID":-5},"Mem":{"Epoch":0,"Members":[-5]},"Frontier":[]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = ReadCheckpoint(bytes.NewReader(b))
		st, err := ReadCheckpoint(bytes.NewReader(sealed(b)))
		if err != nil {
			return
		}
		_, _ = spyker.RestoreServerCore(st, nopOut{})
	})
}
