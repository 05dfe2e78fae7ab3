package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestReadmeNamesEveryExtension: README's "Beyond the paper" table names
// exactly the experiments of the jobs table that are not a paper figure
// or table, so retiring an experiment cannot leave a stale row behind and
// adding one cannot leave it undocumented.
func TestReadmeNamesEveryExtension(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Beyond the paper\n")
	if !ok {
		t.Fatal(`README.md has no "## Beyond the paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}

	var extensions []string
	for _, j := range jobs {
		if !strings.HasPrefix(j.name, "fig") && !strings.HasPrefix(j.name, "table") {
			extensions = append(extensions, j.name)
		}
	}
	sort.Strings(rows)
	sort.Strings(extensions)
	if strings.Join(rows, " ") != strings.Join(extensions, " ") {
		t.Errorf("README's \"Beyond the paper\" rows %v, want the non-paper jobs %v", rows, extensions)
	}
}
