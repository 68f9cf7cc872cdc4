package dedup

import (
	"inlinered/internal/parallel"
)

// BatchHasher fingerprints slices of chunks through a persistent
// parallel.Pool with zero steady-state allocations: the job closure is
// built once at construction and the batch inputs are threaded through
// fields, so a Map dispatch captures nothing per call. Hashing has no
// cross-chunk dependency (§3.1), so the pool's atomic batch claiming is
// all the coordination the stage needs.
//
// A BatchHasher is owned by one dispatching goroutine; concurrent SumInto
// calls on the same hasher would race on the staged batch fields. The
// hashing itself fans out across the pool's workers.
type BatchHasher struct {
	pool   *parallel.Pool
	chunks [][]byte
	out    []Fingerprint
	fn     func(int)
}

// NewBatchHasher returns a hasher that dispatches on pool.
func NewBatchHasher(pool *parallel.Pool) *BatchHasher {
	h := &BatchHasher{pool: pool}
	h.fn = func(i int) { h.out[i] = Sum(h.chunks[i]) }
	return h
}

// SumInto fingerprints chunks into dst, growing it only when its capacity
// is insufficient; results are positionally aligned with chunks. Callers
// that recycle batches feed the previous return back in and reach a
// steady state with no allocations per batch.
func (h *BatchHasher) SumInto(dst []Fingerprint, chunks [][]byte) []Fingerprint {
	var out []Fingerprint
	if cap(dst) >= len(chunks) {
		out = dst[:len(chunks)]
	} else {
		out = make([]Fingerprint, len(chunks))
	}
	if len(chunks) == 0 {
		return out
	}
	h.chunks, h.out = chunks, out
	h.pool.Map(len(chunks), h.fn)
	// Drop the batch references so chunk payload buffers can be recycled
	// (or collected) without the hasher pinning them.
	h.chunks, h.out = nil, nil
	return out
}

// SumBatch fingerprints chunks through pool in one call — the convenience
// form for callers without a batch loop. Loop callers should hold a
// BatchHasher and use SumInto to amortize the dispatch state.
func SumBatch(pool *parallel.Pool, chunks [][]byte) []Fingerprint {
	return NewBatchHasher(pool).SumInto(nil, chunks)
}
