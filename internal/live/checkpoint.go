package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/transport"
)

// WriteCheckpoint persists the server's full protocol state (model, ages,
// token, decay counters) as one JSON-encoded spyker.State followed by its
// checksum line, so a restarted process can resume where it left off.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	// The scratch State and the encode buffer are reused, so periodic
	// checkpointing allocates no model-sized vector per tick; ckptMu
	// serializes checkpoint writers, and the encode runs outside s.mu.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	s.core.SnapshotInto(&s.ckptScratch)
	sink, at := s.sink, s.clock() // the mark is stamped when the state was taken
	s.mu.Unlock()
	st := &s.ckptScratch
	s.ckptBuf.Reset()
	if err := json.NewEncoder(&s.ckptBuf).Encode(st); err != nil {
		return fmt.Errorf("live: encode checkpoint: %w", err)
	}
	s.ckptBuf.Write(checksumLine(s.ckptBuf.Bytes()))
	if _, err := w.Write(s.ckptBuf.Bytes()); err != nil {
		return fmt.Errorf("live: write checkpoint: %w", err)
	}
	if sink.Enabled() {
		sink.Emit(obs.Event{
			Time: at, Kind: obs.KindCheckpoint,
			Node: s.ID, Peer: obs.NoPeer, Bytes: s.ckptBuf.Len(), Age: st.Age,
		})
	}
	return nil
}

// CheckpointToFile writes the checkpoint atomically and durably (see
// writeFileAtomic): path holds either the previous checkpoint or the whole
// new one, also after a crash or power loss.
func (s *Server) CheckpointToFile(path string) error {
	return writeFileAtomic(path, s.WriteCheckpoint)
}

// writeFileAtomic replaces the file at path with what write produces. It
// writes to a temp file of its own in path's directory (so concurrent
// writers of one path never share one), syncs it, renames it over path,
// and syncs the directory so that the rename itself survives a power loss.
// On any error path is left as it was and the temp file is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// checksumLine is the last line of a checkpoint: the CRC-32C of the JSON
// before it, as eight lower-case hex digits. JSON alone cannot tell a bit
// flip from a state: object keys match case-insensitively and a flipped
// '-' is a carriage return, so one flipped bit can decode to a different
// valid state.
func checksumLine(body []byte) []byte {
	return fmt.Appendf(nil, "%08x\n", crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// ReadCheckpoint decodes a state written by WriteCheckpoint: it refuses a
// missing or wrong checksum line, then decodes strictly (see decodeState).
func ReadCheckpoint(r io.Reader) (spyker.State, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return spyker.State{}, fmt.Errorf("live: read checkpoint: %w", err)
	}
	n := len(b) - len("01234567\n")
	if n < 0 || !bytes.Equal(b[n:], checksumLine(b[:n])) {
		return spyker.State{}, errors.New("live: checkpoint checksum missing or wrong")
	}
	st, err := decodeState(bytes.NewReader(b[:n]))
	if err != nil {
		return spyker.State{}, fmt.Errorf("live: decode checkpoint: %w", err)
	}
	return st, nil
}

// decodeState reads exactly one JSON-encoded spyker.State from r — a
// checkpoint or a join reply's Blob. A field State does not have, a second
// value or any other trailing bytes are refused. JSON carries no element
// counts, so what the decode allocates follows the input's length.
func decodeState(r io.Reader) (spyker.State, error) {
	var st spyker.State
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return spyker.State{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spyker.State{}, errors.New("trailing bytes after the state")
	}
	return st, nil
}

// NewServerFromCheckpoint starts a live server that resumes from a
// snapshot instead of a fresh model: same ID, same protocol position,
// same decay counters.
func NewServerFromCheckpoint(addr string, st spyker.State) (*Server, error) {
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := newShell(st.Config.ID, st.Config, l)
	core, err := spyker.RestoreServerCore(st, (*serverOutbound)(s))
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	// Uncontended (the accept loop starts below); keeps the guarded-field
	// discipline uniform from the first write.
	s.mu.Lock()
	s.installCore(core)
	s.restored = obs.Event{Kind: obs.KindRestore, Node: s.ID, Peer: s.ID}
	if core.HasToken() {
		s.tokenSeen, s.tokenSeenValid = s.clock(), true
	}
	s.mu.Unlock()
	s.updates.Store(int64(sumUpdates(st.Updates)))
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func sumUpdates(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
