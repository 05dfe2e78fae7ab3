package live

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointWriteIsAtomic: a write that fails part-way leaves the
// previous checkpoint byte for byte and no temp file behind; one that
// succeeds replaces it whole and leaves nothing else in the directory.
func TestCheckpointWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
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
