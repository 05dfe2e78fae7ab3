package experiments

import (
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/metrics"
)

func TestWriteTraceCSV(t *testing.T) {
	var b strings.Builder
	trace := metrics.Trace{
		{Time: 1.5, Updates: 10, Loss: 0.5, Acc: 0.8},
		{Time: 2.5, Updates: 20, Loss: 0.25, Acc: 0.9},
	}
	if err := WriteTraceCSV(&b, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "time_s,updates,loss,accuracy,perplexity" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.500000,10,0.500000,0.800000,") {
		t.Errorf("row = %q", lines[1])
	}
}
