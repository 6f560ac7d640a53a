package render

import (
	"strings"
	"testing"

	"repro/internal/construction"
)

func fig2Torus(t *testing.T) *construction.Torus {
	t.Helper()
	tor, err := construction.BuildTorus(construction.TorusParams{D: 2, L: 2, Delta: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func TestTorusASCII(t *testing.T) {
	tor := fig2Torus(t)
	out, err := TorusASCII(tor)
	if err != nil {
		t.Fatal(err)
	}
	// Count glyphs in the grid body only (the header legend also contains
	// the glyph characters).
	_, body, _ := strings.Cut(out, "\n")
	if strings.Count(body, "#") != 24 {
		t.Fatalf("intersection glyphs=%d, want 24:\n%s", strings.Count(body, "#"), out)
	}
	if strings.Count(body, "+") != 72-24 {
		t.Fatalf("path glyphs=%d, want 48:\n%s", strings.Count(body, "+"), out)
	}
	// Grid dimensions: 2·3·2 = 12 rows of 2·4·2 = 16 columns.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 13 { // header + 12 rows
		t.Fatalf("lines=%d, want 13", len(lines))
	}
	if len(lines[1]) != 16 {
		t.Fatalf("row width=%d, want 16", len(lines[1]))
	}
}

func TestTorusASCIIWithView(t *testing.T) {
	tor := fig2Torus(t)
	kStar := 2 * (3 - 1) // ℓ(δ₁−1) = 4
	center := tor.VertexAt([]int{kStar, kStar})
	if center < 0 {
		t.Fatal("marked vertex missing")
	}
	out, err := TorusASCIIWithView(tor, center, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(out, "\n")
	if strings.Count(body, "O") != 1 {
		t.Fatalf("center glyph count != 1:\n%s", out)
	}
	if !strings.Contains(body, "X") || !strings.Contains(body, "x") {
		t.Fatalf("view overlay missing:\n%s", out)
	}
	// The view at k=4 is a strict subset: plain glyphs must remain.
	if !strings.Contains(body, "#") && !strings.Contains(body, "+") {
		t.Fatalf("no invisible vertices at k=4 on a 72-vertex torus:\n%s", out)
	}
}

func TestTorusASCIIRejects3D(t *testing.T) {
	tor, err := construction.BuildTorus(construction.TorusParams{D: 3, L: 2, Delta: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TorusASCII(tor); err == nil {
		t.Fatal("3-d torus accepted")
	}
	if _, err := TorusASCIIWithView(tor, 0, 2); err == nil {
		t.Fatal("3-d view accepted")
	}
}
