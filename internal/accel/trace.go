package accel

import (
	"fmt"
	"io"
	"strings"
)

// TileTrace records one tile's timing in the double-buffered pipeline.
type TileTrace struct {
	// LoadStart/LoadEnd bracket the tile's DMA-in.
	LoadStart, LoadEnd int64
	// ComputeStart/ComputeEnd bracket its PE-array execution.
	ComputeStart, ComputeEnd int64
	// StoreEnd is when its DMA-out drains (0 if the tile stores nothing).
	StoreEnd int64
	// Stall is the PE idle time this tile induced.
	Stall int64
}

// PrintTimeline renders a compact text Gantt of the traced tiles: one row
// per tile, '░' for the load phase, '█' for compute, '·' for stall,
// scaled to width columns.
func PrintTimeline(w io.Writer, traces []TileTrace, width int) {
	if len(traces) == 0 {
		fmt.Fprintln(w, "(no tiles)")
		return
	}
	if width < 10 {
		width = 10
	}
	var span int64
	for _, t := range traces {
		if t.ComputeEnd > span {
			span = t.ComputeEnd
		}
		if t.StoreEnd > span {
			span = t.StoreEnd
		}
	}
	if span == 0 {
		span = 1
	}
	col := func(cycle int64) int {
		c := int(cycle * int64(width) / span)
		if c >= width {
			c = width - 1
		}
		return c
	}
	fmt.Fprintf(w, "pipeline timeline (%d tiles shown, %d cycles, ░ load  █ compute  · stall)\n", len(traces), span)
	for i, t := range traces {
		row := []rune(strings.Repeat(" ", width))
		for c := col(t.LoadStart); c <= col(t.LoadEnd); c++ {
			row[c] = '░'
		}
		if t.Stall > 0 {
			for c := col(t.ComputeStart - t.Stall); c < col(t.ComputeStart); c++ {
				row[c] = '·'
			}
		}
		for c := col(t.ComputeStart); c <= col(t.ComputeEnd); c++ {
			row[c] = '█'
		}
		fmt.Fprintf(w, "  t%-3d %s\n", i, string(row))
	}
}
