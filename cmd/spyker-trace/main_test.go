package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const validTrace = `{"t":1,"kind":"client-update","node":0,"peer":7,"uid":8000000001,"front":[1,0]}
{"t":2,"kind":"server-agg","node":1,"peer":0,"bid":1,"front":[1,0]}
`

func TestRunRejectsMalformedTrace(t *testing.T) {
	// Garbage anywhere in the file must fail the whole invocation — no
	// silent summary of the readable prefix.
	for _, content := range []string{
		"not json\n",
		validTrace + "garbage tail\n",
		validTrace + "{}\n", // valid JSON but not an event
	} {
		p := writeTemp(t, content)
		if err := run([]string{p}, "summary", 5, 0, ""); err == nil {
			t.Errorf("malformed trace %q must error", content)
		}
	}
}

func TestRunRejectsEmptyTrace(t *testing.T) {
	p := writeTemp(t, "")
	if err := run([]string{p}, "summary", 5, 0, ""); err == nil {
		t.Error("empty trace must error")
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	p := writeTemp(t, validTrace)
	if err := run([]string{p}, "nonsense", 5, 0, ""); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestRunModes(t *testing.T) {
	p := writeTemp(t, validTrace)
	for _, mode := range []string{"summary", "provenance", "critpath", "health"} {
		if err := run([]string{p}, mode, 5, 0, ""); err != nil {
			t.Errorf("mode %s failed on a valid trace: %v", mode, err)
		}
	}
}

func TestRunChromeExport(t *testing.T) {
	p := writeTemp(t, validTrace)
	out := filepath.Join(t.TempDir(), "chrome.json")
	if err := run([]string{p}, "summary", 5, 0, out); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("chrome export missing or empty: %v", err)
	}
}

// writeEvents marshals a per-process trace to a JSONL file, the same
// format spyker-live -trace writes.
func writeEvents(t *testing.T, name string, events []obs.Event) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(f, "%s\n", b)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return p
}

// skewedRing fabricates two single-process traces of a 2-server token
// ring whose clocks are skewed, exactly what two spyker-live -role
// server processes produce.
func skewedRing(t *testing.T, skew1 float64) (string, string) {
	t.Helper()
	const delay = 0.05
	var tr [2][]obs.Event
	clock := func(id int, at float64) float64 {
		if id == 1 {
			return at + skew1
		}
		return at
	}
	at := 1.0
	for round := 0; round < 6; round++ {
		from := round % 2
		to := 1 - from
		tr[from] = append(tr[from],
			obs.Event{Time: clock(from, at), Kind: obs.KindTokenPass, Node: from, Peer: to, Bid: 1},
			obs.Event{Time: clock(from, at), Kind: obs.KindMsgSend,
				Node: obs.ServerNode + from, Peer: obs.ServerNode + to, Bytes: 64, Note: "token"},
		)
		tr[to] = append(tr[to],
			obs.Event{Time: clock(to, at+delay), Kind: obs.KindMsgRecv,
				Node: obs.ServerNode + to, Peer: obs.ServerNode + from, Bytes: 64, Note: "token"},
		)
		at += 1.0
	}
	return writeEvents(t, "s0.jsonl", tr[0]), writeEvents(t, "s1.jsonl", tr[1])
}

// TestRunMergedTraces: two skewed per-process traces must merge into
// one causally ordered timeline that every analysis mode accepts — the
// multi-process counterpart of the single-file modes above.
func TestRunMergedTraces(t *testing.T) {
	p0, p1 := skewedRing(t, 7.5)
	for _, mode := range []string{"summary", "health"} {
		if err := run([]string{p0, p1}, mode, 5, 0, ""); err != nil {
			t.Errorf("mode %s failed on merged traces: %v", mode, err)
		}
	}
	// Order must not matter: the reference clock is just input 0.
	if err := run([]string{p1, p0}, "summary", 5, 0, ""); err != nil {
		t.Errorf("reversed merge failed: %v", err)
	}
}

// TestRunMergeRejects: merging traces that share an emitter (the same
// file twice) must fail loudly, not double-count.
func TestRunMergeRejects(t *testing.T) {
	p0, _ := skewedRing(t, 0)
	if err := run([]string{p0, p0}, "summary", 5, 0, ""); err == nil {
		t.Error("duplicate-emitter merge must error")
	}
}
