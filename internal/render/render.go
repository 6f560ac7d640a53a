// Package render draws 2-dimensional torus constructions as ASCII art —
// the textual analogue of the paper's Figures 1 and 2 — and renders
// player views on top of them, so the "defective view" intuition behind
// the lower bounds can be inspected in a terminal.
package render

import (
	"fmt"
	"strings"

	"repro/internal/construction"
)

// TorusASCII renders a d=2 torus as a character grid: intersection
// vertices as '#', path vertices as '+', empty positions as spaces.
// Rows are the first coordinate (mod 2δ₁ℓ), columns the second.
func TorusASCII(t *construction.Torus) (string, error) {
	if t.Params.D != 2 {
		return "", fmt.Errorf("render: ASCII rendering needs d=2, got d=%d", t.Params.D)
	}
	return asciiGrid(t, nil)
}

// TorusASCIIWithView renders the torus with the radius-k view of the
// given vertex highlighted: the center as 'O', visible intersection
// vertices as 'X', visible path vertices as 'x'; invisible vertices keep
// their plain glyphs. This reproduces the red/gray view overlays of
// Figures 1–2.
func TorusASCIIWithView(t *construction.Torus, center, k int) (string, error) {
	if t.Params.D != 2 {
		return "", fmt.Errorf("render: ASCII rendering needs d=2, got d=%d", t.Params.D)
	}
	g := t.State.Graph()
	dist := make([]int, g.N())
	g.BFSWithin(center, k, dist)
	visible := make(map[int]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if dist[v] <= k {
			visible[v] = true
		}
	}
	overlay := &viewOverlay{center: center, visible: visible}
	return asciiGrid(t, overlay)
}

type viewOverlay struct {
	center  int
	visible map[int]bool
}

func asciiGrid(t *construction.Torus, ov *viewOverlay) (string, error) {
	rows := 2 * t.Params.Delta[0] * t.Params.L
	cols := 2 * t.Params.Delta[1] * t.Params.L
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for v, coords := range t.Coords {
		r, c := coords[0], coords[1]
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return "", fmt.Errorf("render: coordinate %v out of grid %dx%d", coords, rows, cols)
		}
		glyph := byte('+')
		if t.Intersection[v] {
			glyph = '#'
		}
		if ov != nil {
			switch {
			case v == ov.center:
				glyph = 'O'
			case ov.visible[v] && t.Intersection[v]:
				glyph = 'X'
			case ov.visible[v]:
				glyph = 'x'
			}
		}
		grid[r][c] = glyph
	}
	var b strings.Builder
	fmt.Fprintf(&b, "torus d=2 ℓ=%d δ=%v (%d vertices; '#' intersection, '+' path", t.Params.L, t.Params.Delta, len(t.Coords))
	if ov != nil {
		b.WriteString("; 'O' center, 'X'/'x' visible")
	}
	b.WriteString(")\n")
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
