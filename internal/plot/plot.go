// Package plot renders line charts as ASCII for the terminal, so the
// experiment harness can draw the paper's figures (accuracy vs time,
// perplexity vs updates, queue lengths) directly in bench output without
// any plotting dependency.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of a chart.
type Series struct {
	Name string
	X, Y []float64
}

// markers label the series in draw order.
var markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart configures a rendering.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
}

// Render draws the series into a bordered ASCII chart with a legend, the
// axes spanning the data. Series with fewer than two points are skipped.
// Returns "" if nothing is drawable.
func (c Chart) Render(series []Series) string {
	const w, h = 64, 16 // plot-area columns and rows

	var drawable []Series
	for _, s := range series {
		if len(s.X) >= 2 && len(s.X) == len(s.Y) {
			drawable = append(drawable, s)
		}
	}
	if len(drawable) == 0 {
		return ""
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range drawable {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]rune, h)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		p := int((x - xmin) / (xmax - xmin) * float64(w-1))
		return clampInt(p, 0, w-1)
	}
	row := func(y float64) int {
		p := int((y - ymin) / (ymax - ymin) * float64(h-1))
		return clampInt(h-1-p, 0, h-1)
	}

	for si, s := range drawable {
		m := markers[si%len(markers)]
		// Interpolate between consecutive points so the lines read as
		// lines, not scattered dots.
		for i := 0; i+1 < len(s.X); i++ {
			c0, r0 := col(s.X[i]), row(s.Y[i])
			c1, r1 := col(s.X[i+1]), row(s.Y[i+1])
			steps := maxInt(absInt(c1-c0), absInt(r1-r0))
			if steps == 0 {
				grid[r0][c0] = m
				continue
			}
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(steps)
				rr := r0 + int(math.Round(f*float64(r1-r0)))
				cc := c0 + int(math.Round(f*float64(c1-c0)))
				grid[rr][cc] = m
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	labelW := maxInt(len(yTop), len(yBot))
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelW, yTop)
		case h - 1:
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*.3g%*.3g",
		strings.Repeat(" ", labelW), w/2, xmin, w-w/2, xmax)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "  (%s)", c.XLabel)
	}
	b.WriteString("\n")
	for si, s := range drawable {
		fmt.Fprintf(&b, "  %c %s", markers[si%len(markers)], s.Name)
		if (si+1)%4 == 0 {
			b.WriteString("\n")
		}
	}
	if len(drawable)%4 != 0 {
		b.WriteString("\n")
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, "  y: %s\n", c.YLabel)
	}
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
