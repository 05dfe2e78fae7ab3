package experiments

import (
	"fmt"
	"io"

	"github.com/spyker-fl/spyker/internal/metrics"
)

// WriteTraceCSV writes an evaluation trace as CSV with a header, ready
// for plotting: time_s, updates, loss, accuracy, perplexity.
func WriteTraceCSV(w io.Writer, trace metrics.Trace) error {
	if _, err := fmt.Fprintln(w, "time_s,updates,loss,accuracy,perplexity"); err != nil {
		return err
	}
	for _, p := range trace {
		if _, err := fmt.Fprintf(w, "%.6f,%d,%.6f,%.6f,%.6f\n",
			p.Time, p.Updates, p.Loss, p.Acc, p.Perplexity()); err != nil {
			return err
		}
	}
	return nil
}
