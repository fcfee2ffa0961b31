package sparse

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix of float32 values.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Vals       []float32
}

// COOEntry is one (row, col, value) triple used to build CSR matrices.
type COOEntry struct {
	Row, Col int32
	Val      float32
}

// NewCSR builds a CSR matrix from unordered COO entries; duplicate
// coordinates are summed and explicit zeros dropped.
func NewCSR(rows, cols int, entries []COOEntry) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("sparse: COO entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := append([]COOEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		var sum float32
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		if sum != 0 {
			m.ColIdx = append(m.ColIdx, sorted[i].Col)
			m.Vals = append(m.Vals, sum)
			m.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// SpMMInto computes m * d for a dense matrix d into a preallocated out
// (m.Rows x d.Cols), overwriting its contents.
func (m *CSR) SpMMInto(out *Mat, d *Mat) error {
	if d.Rows != m.Cols {
		return fmt.Errorf("sparse: SpMM shape mismatch %dx%d x %dx%d", m.Rows, m.Cols, d.Rows, d.Cols)
	}
	if out.Rows != m.Rows || out.Cols != d.Cols {
		return fmt.Errorf("sparse: SpMM output %dx%d, want %dx%d", out.Rows, out.Cols, m.Rows, d.Cols)
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			v := m.Vals[k]
			drow := d.Data[int(m.ColIdx[k])*d.Cols : (int(m.ColIdx[k])+1)*d.Cols]
			for j, dv := range drow {
				orow[j] += v * dv
			}
		}
	}
	return nil
}
