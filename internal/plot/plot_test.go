package plot

import (
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	out := Chart{Title: "test chart", XLabel: "time", YLabel: "acc"}.Render([]Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	})
	if !strings.Contains(out, "test chart") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "(time)") || !strings.Contains(out, "y: acc") {
		t.Error("axis labels missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("markers missing from plot area")
	}
}

func TestRenderIncreasingSeriesShape(t *testing.T) {
	out := Chart{}.Render([]Series{
		{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}},
	})
	lines := strings.Split(out, "\n")
	// The first plotted row (top) must contain a marker near the right
	// edge, the last plotted row near the left edge.
	var plotLines []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines = append(plotLines, l[strings.Index(l, "|"):])
		}
	}
	if len(plotLines) != 16 {
		t.Fatalf("plot rows = %d", len(plotLines))
	}
	top, bottom := plotLines[0], plotLines[len(plotLines)-1]
	if strings.IndexRune(top, '*') < strings.IndexRune(bottom, '*') {
		t.Error("increasing series does not rise from left to right")
	}
}

func TestRenderEmptyAndDegenerate(t *testing.T) {
	if out := (Chart{}).Render(nil); out != "" {
		t.Error("empty render should be empty")
	}
	if out := (Chart{}).Render([]Series{{Name: "one", X: []float64{1}, Y: []float64{1}}}); out != "" {
		t.Error("single-point series should be skipped")
	}
	// Constant series must not divide by zero.
	out := (Chart{}).Render([]Series{{Name: "flat", X: []float64{0, 1}, Y: []float64{5, 5}}})
	if out == "" || strings.Contains(out, "NaN") {
		t.Error("flat series broke rendering")
	}
}

func TestRenderManySeriesCycleMarkers(t *testing.T) {
	series := make([]Series, 10)
	for i := range series {
		series[i] = Series{
			Name: strings.Repeat("s", i+1),
			X:    []float64{0, 1},
			Y:    []float64{float64(i), float64(i + 1)},
		}
	}
	out := (Chart{}).Render(series)
	if out == "" {
		t.Fatal("render failed")
	}
	// Marker list cycles after 8; the 9th series reuses '*'.
	if !strings.Contains(out, "* sssssssss") {
		t.Error("marker cycling broken")
	}
}
