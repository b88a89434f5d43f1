package study

import (
	"fmt"
	"strings"

	"repro/internal/textplot"
)

// MarkdownReport renders every figure of the results as a markdown
// section with a table (the format EXPERIMENTS.md embeds).
func (r *Results) MarkdownReport() string {
	var b strings.Builder
	for _, f := range r.Figures() {
		b.WriteString(f.Markdown())
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders one figure as a markdown table with its notes.
func (f Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", f.ID, f.Title)
	b.WriteString("| T |")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteByte('\n')
	b.WriteString("|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "| %s |", formatThreshold(x))
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %.4f |", s.Y[i])
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	for _, g := range f.Gaps {
		fmt.Fprintf(&b, "\n*%s*\n", g)
	}
	return b.String()
}

// formatThreshold renders a paper-unit threshold compactly.
func formatThreshold(x float64) string {
	switch {
	case x >= 1e6 && x == float64(int64(x/1e6))*1e6:
		return fmt.Sprintf("%gM", x/1e6)
	case x >= 1e3 && x == float64(int64(x/1e3))*1e3:
		return fmt.Sprintf("%gk", x/1e3)
	default:
		return fmt.Sprintf("%g", x)
	}
}

// TextReport renders the given figures as plain-text tables (and charts
// when charts is set), the cmd/inipstudy default output.
func TextReport(figs []Figure, charts bool) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
		series := make([]textplot.Series, len(f.Series))
		for i, s := range f.Series {
			series[i] = textplot.Series{Label: s.Label, Y: s.Y}
		}
		b.WriteString(textplot.Table("T", f.X, series))
		if charts {
			b.WriteString(textplot.Chart(f.X, series, 72, 18))
		}
		for _, n := range f.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
		for _, g := range f.Gaps {
			fmt.Fprintf(&b, "%s\n", g)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
