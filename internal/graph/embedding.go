package graph

import (
	"fmt"

	"graphtensor/internal/tensor"
)

// EmbeddingTable holds per-vertex dense feature vectors in contiguous
// memory (paper Fig 1c). Row v is the embedding of vertex v. The same type
// represents both the global host-side table (indexed by original VID) and
// the small per-batch table the preprocessing stage assembles (indexed by
// the new VIDs the sampling hash table allocated).
type EmbeddingTable struct {
	Dim  int
	Data *tensor.Matrix // NumVertices × Dim
}

// NewEmbeddingTable allocates a zeroed table for n vertices of the given
// feature dimension.
func NewEmbeddingTable(n, dim int) *EmbeddingTable {
	return &EmbeddingTable{Dim: dim, Data: tensor.New(n, dim)}
}

// NewEmbeddingTableArena allocates the table storage from a batch-scoped
// arena, so per-batch embedding tables are recycled instead of reallocated
// (the prefetch-ring discipline). A nil arena falls back to a plain
// allocation.
func NewEmbeddingTableArena(a *tensor.Arena, n, dim int) *EmbeddingTable {
	if a == nil {
		return NewEmbeddingTable(n, dim)
	}
	return &EmbeddingTable{Dim: dim, Data: a.Get(n, dim)}
}

// RandomEmbeddingTableForTest fills a table with a simple deterministic
// pattern (row v, column c = v + c/100) so tests can construct embeddings
// without importing the tensor RNG. It is exported for use by sibling
// package tests.
func RandomEmbeddingTableForTest(n, dim int) *EmbeddingTable {
	t := NewEmbeddingTable(n, dim)
	for v := 0; v < n; v++ {
		row := t.Data.Row(v)
		for c := range row {
			row[c] = float32(v) + float32(c)/100
		}
	}
	return t
}

// NumVertices returns the number of rows in the table.
func (t *EmbeddingTable) NumVertices() int { return t.Data.Rows }

// Row returns the embedding of vertex v, aliasing table storage.
func (t *EmbeddingTable) Row(v VID) []float32 {
	if v < 0 || int(v) >= t.Data.Rows {
		panic(fmt.Sprintf("graph: embedding row %d out of range [0,%d)", v, t.Data.Rows))
	}
	return t.Data.Row(int(v))
}

// Bytes reports the payload size of the table.
func (t *EmbeddingTable) Bytes() int64 { return t.Data.Bytes() }

// Gather builds a new table whose row i is the embedding of vids[i]. This
// is the embedding-lookup (K) primitive of GNN preprocessing (§II-B).
func (t *EmbeddingTable) Gather(vids []VID) *EmbeddingTable {
	out := NewEmbeddingTable(len(vids), t.Dim)
	for i, v := range vids {
		copy(out.Data.Row(i), t.Row(v))
	}
	return out
}

// GatherInto copies rows vids[lo:hi] into dst starting at row lo. It lets
// the pipelined scheduler fill one pinned buffer from several goroutines
// without overlap.
func (t *EmbeddingTable) GatherInto(dst *EmbeddingTable, vids []VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(dst.Data.Row(i), t.Row(vids[i]))
	}
}
