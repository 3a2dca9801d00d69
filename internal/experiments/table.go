package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Column is one column of a table's text form.
type Column struct {
	Header string // a table whose headers are all empty prints no header line
	Width  int    // cells are padded to this many runes; 0 pads nothing
	Left   bool   // pad on the right (left-aligned) instead of on the left
}

// Table is one experiment's rows, ready to draw: Cols and Rows are the text
// form, an aligned grid with one cell per column in every row; CSVHeader and
// Records are the CSV form, which may lay the same rows out differently
// (Figs 6–8 are long-form there, one record per tag).
type Table struct {
	Cols      []Column
	Rows      [][]string
	CSVHeader []string
	Records   [][]string
}

// Text draws the grid: a header line, then one line per row. Cells are
// separated by one space and padded to their column's width. An empty cell
// is not drawn, nor is the space before it, so rows of different shapes
// share one grid: Figs 6–8 stack each bar's per-tag lines, which fill only
// the tag columns, under the bar's total line, which fills only the others.
func (t Table) Text() string {
	var b strings.Builder
	line := func(cells []string) {
		sep := ""
		for i, c := range cells {
			if c == "" {
				continue
			}
			b.WriteString(sep)
			sep = " "
			if col := t.Cols[i]; col.Left {
				fmt.Fprintf(&b, "%-*s", col.Width, c)
			} else {
				fmt.Fprintf(&b, "%*s", col.Width, c)
			}
		}
		b.WriteByte('\n')
	}
	header := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		header[i] = c.Header
	}
	if strings.Join(header, "") != "" {
		line(header)
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV draws the CSV form: the header record, then every record, quoted as
// encoding/csv quotes them.
func (t Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(t.CSVHeader) // a strings.Builder never fails a write
	_ = w.WriteAll(t.Records)
	return sb.String()
}

// left and right build the columns of a text grid.
func left(header string, width int) Column  { return Column{Header: header, Width: width, Left: true} }
func right(header string, width int) Column { return Column{Header: header, Width: width} }
