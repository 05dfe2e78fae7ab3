package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantPattern extracts the backquoted regexes of one `// want` comment.
var wantPattern = regexp.MustCompile("`([^`]+)`")

// want is one expectation parsed from a fixture: a regex the message of a
// diagnostic at file:line must match.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants collects the `// want ...` expectations of every .go file in
// dir. Multiple backquoted patterns on one line expect multiple
// diagnostics there.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path, err := filepath.Abs(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			ms := wantPattern.FindAllStringSubmatch(line[idx:], -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: `// want` comment without backquoted pattern", path, i+1)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: path, line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no expectations", dir)
	}
	return wants
}

// runGolden lints one fixture package and checks its findings against the
// `// want` expectations: every diagnostic must match an expectation on
// its line, and every expectation must be hit.
func runGolden(t *testing.T, cfg *Config, fixture string) {
	t.Helper()
	diags, err := Run(cfg, "", nil, "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	wants := parseWants(t, filepath.Join("testdata", "src", fixture))
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	runGolden(t, DefaultConfig(), "determinism")
}

func TestGoldenSendCheck(t *testing.T) {
	runGolden(t, DefaultConfig(), "sendcheck")
}

func TestGoldenLockDiscipline(t *testing.T) {
	runGolden(t, DefaultConfig(), "lockdiscipline")
}

func TestGoldenGoroutineLife(t *testing.T) {
	runGolden(t, DefaultConfig(), "goroutinelife")
}

// TestRealTreeClean pins the repository's own code at zero findings under
// the default configuration — the same invocation CI runs.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	diags, err := Run(DefaultConfig(), "../..", nil, "./...")
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}
