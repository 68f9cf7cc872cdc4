package dedup

import (
	"fmt"
	"sync"
)

// ItemResult is the outcome of indexing one chunk in a batch.
type ItemResult struct {
	Probe  Probe        // what the lookup did
	Insert InsertResult // what the insert did (zero when Probe.Found)
}

// WorkerWork aggregates the index work one worker performed, for costing.
type WorkerWork struct {
	Items         int
	BufferScanned int
	TreeSteps     int
	Flushes       []*Flush
}

// ParallelIndexer drives a BinIndex from several goroutines without any
// locking, using the paper's partitioning argument: each bin is owned by
// exactly one worker (bin mod workers), so no two goroutines ever touch the
// same bin. Items that share a fingerprint land in the same bin and are
// processed in stream order by its owner, preserving first-occurrence
// semantics.
type ParallelIndexer struct {
	Index   *BinIndex
	Workers int
}

// NewParallelIndexer returns an indexer over idx with the given worker
// count. It panics if workers < 1.
func NewParallelIndexer(idx *BinIndex, workers int) *ParallelIndexer {
	if workers < 1 {
		panic(fmt.Sprintf("dedup: need >= 1 worker, got %d", workers))
	}
	if idx.Config().MaxEntries != 0 && workers > 1 {
		// The random replacement policy shares one RNG and may evict from
		// other workers' bins, so capped indexes must be driven serially.
		panic("dedup: capped indexes (MaxEntries > 0) cannot be driven by multiple workers")
	}
	return &ParallelIndexer{Index: idx, Workers: workers}
}

// Process indexes a batch: for each fingerprint it performs a lookup and,
// on a miss, inserts the entry produced by makeEntry(i). Results are
// positionally aligned with fps; the per-worker work summaries let the
// simulation cost each worker's virtual time independently.
func (p *ParallelIndexer) Process(fps []Fingerprint, makeEntry func(i int) Entry) ([]ItemResult, []WorkerWork) {
	return p.ProcessInto(nil, nil, fps, makeEntry)
}

// ProcessInto is Process writing into caller-provided result slices, which
// are grown only when their capacity is insufficient; repeated batches can
// feed the previous call's returns back in to amortize the allocation.
// Passing nil for either slice allocates it fresh.
func (p *ParallelIndexer) ProcessInto(results []ItemResult, work []WorkerWork, fps []Fingerprint, makeEntry func(i int) Entry) ([]ItemResult, []WorkerWork) {
	if cap(results) >= len(fps) {
		results = results[:len(fps)]
		clear(results)
	} else {
		results = make([]ItemResult, len(fps))
	}
	if cap(work) >= p.Workers {
		work = work[:p.Workers]
		clear(work)
	} else {
		work = make([]WorkerWork, p.Workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ww := &work[w]
			for i, fp := range fps {
				if int(p.Index.BinOf(fp))%p.Workers != w {
					continue
				}
				pr := p.Index.Lookup(fp)
				results[i].Probe = pr
				ww.Items++
				ww.BufferScanned += pr.BufferScanned
				ww.TreeSteps += pr.TreeSteps
				if pr.Found {
					continue
				}
				ir := p.Index.Insert(fp, makeEntry(i))
				results[i].Insert = ir
				ww.BufferScanned += ir.BufferScanned
				if ir.Flush != nil {
					ww.TreeSteps += ir.Flush.TreeSteps
					ww.Flushes = append(ww.Flushes, ir.Flush)
				}
			}
		}(w)
	}
	wg.Wait()
	return results, work
}
