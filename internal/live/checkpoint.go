package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/transport"
)

// WriteCheckpoint persists the server's full protocol state (model, ages,
// token, decay counters) as one JSON-encoded spyker.State, so a restarted
// process can resume where it left off.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	// The scratch State and the encode buffer are reused, so periodic
	// checkpointing allocates no model-sized vector per tick; ckptMu
	// serializes checkpoint writers, and the encode runs outside s.mu.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	s.core.SnapshotInto(&s.ckptScratch)
	sink := s.sink
	s.mu.Unlock()
	st := &s.ckptScratch
	s.ckptBuf.Reset()
	if err := json.NewEncoder(&s.ckptBuf).Encode(st); err != nil {
		return fmt.Errorf("live: encode checkpoint: %w", err)
	}
	if _, err := w.Write(s.ckptBuf.Bytes()); err != nil {
		return fmt.Errorf("live: write checkpoint: %w", err)
	}
	if sink.Enabled() {
		sink.Emit(obs.Event{
			Time: s.clock(), Kind: obs.KindCheckpoint,
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

// ReadCheckpoint decodes a state written by WriteCheckpoint, strictly (see
// decodeState).
func ReadCheckpoint(r io.Reader) (spyker.State, error) {
	st, err := decodeState(r)
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
