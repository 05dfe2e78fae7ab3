package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites the study goldens from this run's output:
// go test -run 'Study|RunComparison|Ablations' ./internal/experiments -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this run's Render output")

// golden compares a study's rendered tables byte for byte with
// testdata/golden/<study>.txt. The files were recorded on 81b658e, the
// commit before the studies moved onto one sweep-and-table harness, each
// with the scale and seed of the test that checks it; a seeded study is
// deterministic, so a moved column, width or digit fails here. A change
// that means to move a table re-records it with -update and says so.
func golden(t *testing.T, study, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", study+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "(end of file)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("%s moved at line %d:\n got  %q\n want %q", path, i+1, gotLines[i], w)
			return
		}
	}
	t.Errorf("%s moved: output ends at line %d, golden has %d lines", path, len(gotLines), len(wantLines))
}
