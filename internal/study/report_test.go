package study

import (
	"strings"
	"testing"
)

func TestMarkdownReport(t *testing.T) {
	res := tinyStudy(t, "vortex", "swim")
	md := res.MarkdownReport()
	for _, want := range []string{
		"### fig8:", "### fig17:", "### fig18:",
		"| T |", "| 1k |", "|---|",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown report missing %q", want)
		}
	}
	// Every figure section present exactly once.
	for _, id := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18"} {
		if got := strings.Count(md, "### "+id+":"); got != 1 {
			t.Fatalf("figure %s appears %d times", id, got)
		}
	}
}

func TestTextReport(t *testing.T) {
	res := tinyStudy(t, "vortex")
	text := TextReport(res.Figures(), false)
	if !strings.Contains(text, "== fig8:") || !strings.Contains(text, "note:") {
		t.Fatalf("text report incomplete:\n%.400s", text)
	}
	withCharts := TextReport(res.Figures(), true)
	if len(withCharts) <= len(text) {
		t.Fatal("charts did not add output")
	}
}

func TestFormatThreshold(t *testing.T) {
	cases := map[float64]string{100: "100", 2000: "2k", 4e6: "4M", 160000: "160k", 50: "50"}
	for in, want := range cases {
		if got := formatThreshold(in); got != want {
			t.Fatalf("formatThreshold(%v) = %q, want %q", in, got, want)
		}
	}
}
