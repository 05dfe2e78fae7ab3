package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders every metric in the Prometheus plaintext
// exposition format (text/plain; version=0.0.4): counters as single
// samples, histograms as cumulative _bucket series plus _sum and
// _count. Metric names are sanitized to the Prometheus charset — dots,
// arrows, and other separators become underscores.
//
// The output is a point-in-time snapshot under the registry lock, so it
// is consistent; scrape handlers can call it directly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := PromName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, r.counters[n].Value()); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.histograms[n]
		pn := PromName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum int64
		counts := h.BucketCounts()
		for i, b := range h.Bounds() {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, b, cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, h.Sum(), pn, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// PromName maps an arbitrary metric name onto the Prometheus metric
// charset [a-zA-Z0-9_:]; every other rune becomes an underscore, a
// leading digit gets an underscore prefix, and the empty name renders as
// a single underscore (the exposition format has no empty identifiers).
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromLabelName maps an arbitrary label name onto the Prometheus label
// charset [a-zA-Z0-9_] — like PromName but without ':', which is
// reserved for metric names.
func PromLabelName(name string) string {
	return strings.ReplaceAll(PromName(name), ":", "_")
}

// PromLabelValue escapes a label value per the exposition format: label
// values may contain any UTF-8, but backslash, double quote, and newline
// must be escaped as \\, \", and \n. Carriage returns and tabs are
// folded into \n and a space so a hostile value can never break out of
// the quoted position or inject a second sample line.
func PromLabelValue(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n', '\r':
			b.WriteString(`\n`)
		case '\t':
			b.WriteByte(' ')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// PromLabel is one label of an exposition sample.
type PromLabel struct{ Name, Value string }

// WritePromSample writes one exposition sample with sanitized name and
// labels and escaped label values: name{l1="v1",l2="v2"} value.
func WritePromSample(w io.Writer, name string, labels []PromLabel, value float64) error {
	if _, err := io.WriteString(w, PromName(name)); err != nil {
		return err
	}
	if len(labels) > 0 {
		sep := "{"
		for _, l := range labels {
			if _, err := fmt.Fprintf(w, `%s%s="%s"`, sep, PromLabelName(l.Name), PromLabelValue(l.Value)); err != nil {
				return err
			}
			sep = ","
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, " %g\n", value)
	return err
}
