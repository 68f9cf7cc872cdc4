package volume

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/lz"
	"inlinered/internal/parallel"
)

// The batch read path splits a group of reads into the same three phases
// the write-side pipeline uses:
//
//	Plan   — sequential decision phase: for each LBA, run exactly the
//	         lookup / cache / SSD / accounting steps the serial ReadInto
//	         would, on the virtual clock, in request order. Decode work is
//	         *charged* here but recorded as jobs instead of executed.
//	Run    — parallel work phase: decode items (one per sub-block of an
//	         indexed container, one per whole blob otherwise) execute in
//	         any order, on any number of goroutines, writing only their
//	         own disjoint output ranges. A sub-block whose blob's earlier
//	         parts are all final decodes against that real history and
//	         defers nothing; the pool claims consecutive items, so this is
//	         how nearly every part runs. Only a part that starts before
//	         its predecessors finish defers cross-part overlap copies.
//	Commit — sequential commit phase: per-job deferred overlap copies (if
//	         any) are patched in job order, reserved cache slots are
//	         filled (or un-reserved on decode failure), and reads that hit
//	         a pending-decode cache entry copy their bytes out.
//
// Because every virtual-clock mutation happens in Plan, in request order,
// the report is bit-identical to the serial loop for any worker count.
// The only divergences from N serial ReadInto calls are corrupt-data
// corner cases, documented on ReadBatch.
//
// A batch is open from Plan to the end of Commit. While any batch on the
// volume is open, buffers of evicted cache entries park instead of being
// reused, so a slot reserved at plan time and evicted before its commit
// fill can never alias a newer entry; they settle for reuse when the last
// open batch closes.

// batchOp source kinds.
const (
	srcZero    = int8(iota) // unmapped: zeros synthesized at plan time
	srcCache                // cache hit on a filled entry: copied at plan time
	srcPending              // cache hit on an entry reserved earlier in this batch
	srcDecode               // cache miss: bytes arrive via this op's decode job
)

type batchOp struct {
	lba int64
	src int8
	job int32 // decode job index (srcDecode/srcPending), -1 otherwise
	lat time.Duration
	err error
}

// batchJob is one blob decode charged at plan time and executed in the
// parallel phase.
type batchJob struct {
	op        int // owning op: the job decodes into that op's buffer region
	fp        dedup.Fingerprint
	blob      []byte
	sub       bool         // indexed container: one item per sub-block
	lay       lz.SubLayout // valid when sub
	cacheSlot []byte       // reserved cache entry bytes, nil when not cached
	firstItem int
	items     int
	err       error

	// final counts the leading parts whose bytes are final (decoded on
	// final history, nothing deferred). Part p may decode on final history
	// exactly when final == p; it then stores p+1.
	final atomic.Int32
}

// batchItem is one unit of parallel decode work: a (job, sub-block) pair,
// or a whole-blob serial decode when part < 0.
type batchItem struct {
	job      int32
	part     int32
	deferred []lz.DeferredCopy
	err      error
}

// ReadBatch executes batches of reads through the phased plan / run /
// commit split. A ReadBatch is reusable: each Plan call resets it, and its
// buffers (including sub-block layouts and deferred-copy lists) are
// recycled across batches. Between Plan and Commit, RunItem calls for
// distinct items are safe to run concurrently; everything else must be
// called from one goroutine. Several batches may be open on one volume at
// once, but a read must not hit an entry another open batch reserved: its
// bytes land only at that batch's Commit. A batch planned again (or
// released) without a Commit un-reserves its unfilled cache slots.
//
// Corrupt-data divergences from the serial path (healthy volumes are
// bit-identical): the decompression cycles charged at plan time stand even
// if the decode later fails, a read hitting the cache entry of a decode
// that fails is priced as a cache hit but reports the decode error, and a
// blob that decodes to the wrong size is an error here (the serial path
// returns whatever the blob holds).
type ReadBatch struct {
	v       *Volume
	buf     []byte // len(ops) × BlockSize output regions
	ops     []batchOp
	jobs    []batchJob
	items   []batchItem
	pending map[dedup.Fingerprint]int32 // fp -> job decoding it this batch
	open    bool                        // planned, not yet committed

	// Cache-counter deltas over the last Plan, for batch reports.
	cacheHits, cacheMisses, cacheAdmissions, cacheGhostHits int64
}

// batchPool recycles whole ReadBatch values — backing buffer, op/job/item
// arrays, sub-block layouts, deferred-copy lists, and the pending map all
// survive from one batch's lifetime to the next, so a fresh
// NewReadBatch/Release cycle costs no steady-state allocations. Entries
// carry no volume affinity: Release scrubs every reference into the old
// volume's data.
var batchPool = sync.Pool{New: func() any { return new(ReadBatch) }}

// NewReadBatch returns an empty batch bound to v, recycled from the
// package pool when one is available. Pass it back to Release when done
// with it (serve shards do this on Array.Close) — or don't: an unreleased
// committed batch is ordinary garbage. One dropped between Plan and
// Commit stays open for good, and the volume stops reusing freed cache
// buffers: it parks up to that batch's planned reads and drops the rest.
func (v *Volume) NewReadBatch() *ReadBatch {
	b := batchPool.Get().(*ReadBatch)
	b.v = v
	return b
}

// Release scrubs the batch's references into volume-owned memory (blobs,
// cache slots, token streams) and returns it to the package pool. The
// capacities that make reuse cheap — buffer, op/job/item arrays, layouts,
// deferred lists, the pending map — are kept. The batch must not be used
// after Release.
func (b *ReadBatch) Release() {
	if b == nil {
		return
	}
	b.abandon()
	jobs := b.jobs[:cap(b.jobs)]
	for i := range jobs {
		jb := &jobs[i]
		jb.blob = nil
		jb.cacheSlot = nil
		jb.err = nil
		parts := jb.lay.Parts[:cap(jb.lay.Parts)]
		for p := range parts {
			parts[p].Tokens = nil
		}
	}
	items := b.items[:cap(b.items)]
	for i := range items {
		items[i].err = nil
	}
	ops := b.ops[:cap(b.ops)]
	for i := range ops {
		ops[i].err = nil
	}
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	clear(b.pending)
	b.v = nil
	batchPool.Put(b)
}

// abandon closes a batch that was planned but never committed. Its
// reserved cache slots will never be filled, so they are un-reserved
// before the batch stops holding buffers back from reuse.
func (b *ReadBatch) abandon() {
	if !b.open {
		return
	}
	for j := range b.jobs {
		if jb := &b.jobs[j]; jb.cacheSlot != nil {
			b.v.cache.remove(jb.fp)
		}
	}
	b.close()
}

// close ends the batch's open span (see the package comment above).
func (b *ReadBatch) close() {
	if b.open {
		b.open = false
		b.v.cache.closeBatch(len(b.ops))
	}
}

// grow extends sl by one without clearing the recycled element's backing
// arrays (layouts, deferred lists). Callers must reset every scalar field.
func growJob(sl []batchJob) []batchJob {
	if len(sl) < cap(sl) {
		return sl[:len(sl)+1]
	}
	return append(sl, batchJob{})
}

func growItem(sl []batchItem) []batchItem {
	if len(sl) < cap(sl) {
		return sl[:len(sl)+1]
	}
	return append(sl, batchItem{})
}

// Plan is the sequential decision phase. It validates every LBA up front
// (an invalid LBA fails the whole batch before any accounting, mirroring
// the serial path's pre-validation), then charges each read on the virtual
// clock exactly as ReadInto would, recording decode work as items for the
// parallel phase. After Plan returns, Items reports how much parallel work
// there is.
func (b *ReadBatch) Plan(lbas []int64) error {
	v := b.v
	for _, lba := range lbas {
		if lba < 0 || lba >= v.cfg.Blocks {
			return fmt.Errorf("volume: lba %d outside [0,%d)", lba, v.cfg.Blocks)
		}
	}
	b.abandon()
	b.open = true
	v.cache.openBatch(len(lbas))
	b.ops = b.ops[:0]
	b.jobs = b.jobs[:0]
	b.items = b.items[:0]
	clear(b.pending) // no-op on the nil map of a batch that never missed
	b.cacheHits, b.cacheMisses = 0, 0
	b.cacheAdmissions, b.cacheGhostHits = 0, 0
	h0, m0 := v.cache.hits, v.cache.misses
	a0, g0 := v.cache.admissions, v.cache.ghostHits
	bs := v.cfg.BlockSize
	if need := len(lbas) * bs; cap(b.buf) < need {
		b.buf = make([]byte, need)
	} else {
		b.buf = b.buf[:need]
	}
	cost := v.cpu.Cost

	for i, lba := range lbas {
		start := v.now
		region := b.buf[i*bs : (i+1)*bs]
		op := batchOp{lba: lba, job: -1}

		fp, ok := v.lbaMap[lba]
		if !ok {
			// Unmapped: zero-fill, charged like ReadInto's.
			zs, t := v.cpu.Run(v.now, cost.MemcpyCycles(bs)+cost.StageOverheadCycles)
			v.cpuSpan("zero-fill", zs, t)
			v.stats.Reads++
			v.now = t
			v.histR.Observe(t - start)
			if v.obs != nil {
				v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
			}
			clear(region)
			op.src = srcZero
			op.lat = t - start
			b.ops = append(b.ops, op)
			continue
		}

		if e, hit := v.cache.getRef(fp); hit {
			ms, t := v.cpu.Run(v.now, cost.MemcpyCycles(bs)+cost.StageOverheadCycles)
			v.cpuSpan("cache-copy", ms, t)
			v.stats.Reads++
			v.now = t
			v.histR.Observe(t - start)
			if v.obs != nil {
				v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
			}
			op.lat = t - start
			if j, pend := b.pending[fp]; pend {
				// The entry was reserved by an earlier read in this batch;
				// its bytes exist only after that job decodes. Copy at
				// commit.
				op.src = srcPending
				op.job = j
			} else {
				op.src = srcCache
				copy(region, e.data)
			}
			b.ops = append(b.ops, op)
			continue
		}

		// Cache miss: SSD pages, then a decode charged now and executed in
		// the parallel phase.
		ref := v.chunks[fp]
		blob := v.blobs[ref.loc]
		pageSize := int64(v.drive.PageSize)
		first := ref.loc / pageSize
		last := (ref.loc + int64(ref.size) - 1) / pageSize
		t, err := v.readDrive(v.now, first, int(last-first+1))
		if err != nil {
			op.err = fmt.Errorf("volume: lba %d: %w", lba, err)
			op.lat = v.failRead(start, t, lba)
			op.src = srcDecode
			b.ops = append(b.ops, op)
			continue
		}
		ds, t := v.cpu.Run(t, cost.DecompressCycles(bs)+cost.StageOverheadCycles)
		v.cpuSpan("decompress", ds, t)
		v.stats.Reads++
		v.now = t
		v.histR.Observe(t - start)
		if v.obs != nil {
			v.obs.SpanN(v.laneOps, "read", start, t, "lba", lba)
		}
		op.lat = t - start
		op.src = srcDecode

		j := len(b.jobs)
		b.jobs = growJob(b.jobs)
		jb := &b.jobs[j]
		jb.op = i
		jb.fp = fp
		jb.blob = blob
		jb.sub = false
		jb.err = nil
		jb.firstItem = len(b.items)
		jb.items = 0
		jb.final.Store(0)
		// Reserve the cache slot at decision time so admission and eviction
		// state advance exactly as the serial path's put would. Only a
		// reserved slot can produce a pending hit, so the map (allocated
		// lazily, on the first cached miss ever) stays empty — and untouched
		// — on cache-disabled volumes.
		jb.cacheSlot = v.cache.reserve(fp, bs)
		if jb.cacheSlot != nil {
			if b.pending == nil {
				b.pending = make(map[dedup.Fingerprint]int32, 64)
			}
			b.pending[fp] = int32(j)
		}
		op.job = int32(j)
		b.ops = append(b.ops, op)

		// Boundary resolution (pass 1 of the two-pass decode): table-only,
		// cheap, and sequential — it decides how many parallel items the
		// blob contributes.
		indexed, rerr := lz.ResolveSubBlocks(&jb.lay, blob)
		switch {
		case rerr != nil:
			jb.err = rerr // corrupt table: surfaces at commit
		case indexed && jb.lay.SrcLen == bs:
			jb.sub = true
			jb.items = len(jb.lay.Parts)
			for p := 0; p < jb.items; p++ {
				b.items = growItem(b.items)
				it := &b.items[len(b.items)-1]
				it.job = int32(j)
				it.part = int32(p)
				it.err = nil
			}
		default:
			// Raw, legacy, or wrong-size container: one whole-blob item on
			// the retained serial decoder.
			jb.items = 1
			b.items = growItem(b.items)
			it := &b.items[len(b.items)-1]
			it.job = int32(j)
			it.part = -1
			it.err = nil
		}
	}
	b.cacheHits = v.cache.hits - h0
	b.cacheMisses = v.cache.misses - m0
	b.cacheAdmissions = v.cache.admissions - a0
	b.cacheGhostHits = v.cache.ghostHits - g0
	return nil
}

// CacheHits returns how many of the batch's reads were served from cache
// (including pending hits on entries reserved earlier in the batch).
func (b *ReadBatch) CacheHits() int64 { return b.cacheHits }

// CacheMisses returns how many of the batch's reads missed the cache.
// Unmapped reads look nothing up, so hits+misses can be less than Len.
func (b *ReadBatch) CacheMisses() int64 { return b.cacheMisses }

// CacheAdmissions returns how many entries the batch admitted to (or
// promoted into) the cache's protected segment.
func (b *ReadBatch) CacheAdmissions() int64 { return b.cacheAdmissions }

// CacheGhostHits returns how many of the batch's inserts re-referenced a
// recently evicted fingerprint.
func (b *ReadBatch) CacheGhostHits() int64 { return b.cacheGhostHits }

// Items returns the number of parallel decode items Plan produced.
func (b *ReadBatch) Items() int { return len(b.items) }

// RunItem executes decode item i. Distinct items may run concurrently:
// each writes only its own output range and its own item record.
func (b *ReadBatch) RunItem(i int) {
	it := &b.items[i]
	jb := &b.jobs[it.job]
	if jb.err != nil {
		return // boundary resolution already failed at plan time
	}
	bs := b.v.cfg.BlockSize
	region := b.buf[jb.op*bs : (jb.op+1)*bs]
	// A recycled item slot may hold deferred copies from an earlier batch's
	// sub-part decode; Commit patches deferred unconditionally, so a stale
	// list here would corrupt the freshly decoded block.
	it.deferred = it.deferred[:0]
	if it.part >= 0 {
		if jb.final.Load() == it.part {
			// Every earlier part is final: decode on the real history,
			// defer nothing, and extend the final prefix. The atomic store
			// publishes this part's bytes to the worker that decodes the
			// next part.
			_, it.err = lz.DecodeSubPartFinal(region, &jb.lay, int(it.part))
			if it.err == nil {
				jb.final.Store(it.part + 1)
			}
			return
		}
		if it.deferred == nil {
			// Presize cold slots: deferred lists are short (overlap history
			// plus hole chains), so one up-front block replaces append's
			// doubling walk on the first batch through this slot.
			it.deferred = make([]lz.DeferredCopy, 0, 16)
		}
		it.deferred, _, it.err = lz.DecodeSubPart(region, &jb.lay, int(it.part), it.deferred)
		return
	}
	// Three-index slice: region's capacity must not leak into the next
	// op's region if a corrupt blob over-decodes (append would reallocate
	// instead, and the size check below rejects it).
	out, err := lz.Decompress(region[0:0:bs], jb.blob)
	if err != nil {
		it.err = err
		return
	}
	if len(out) != bs {
		it.err = fmt.Errorf("volume: blob decoded to %d bytes, block size is %d", len(out), bs)
		return
	}
	if &out[0] != &region[0] {
		copy(region, out)
	}
}

// Commit is the sequential commit phase: deferred overlap copies are
// patched per job in item order, reserved cache entries are filled (or
// removed when their decode failed), and pending-hit reads copy out of the
// decoding op's region. Commit closes the batch. After Commit,
// Block/Err/Latency are valid.
func (b *ReadBatch) Commit() {
	v := b.v
	bs := v.cfg.BlockSize
	for j := range b.jobs {
		jb := &b.jobs[j]
		region := b.buf[jb.op*bs : (jb.op+1)*bs]
		if jb.err == nil {
			for k := jb.firstItem; k < jb.firstItem+jb.items; k++ {
				it := &b.items[k]
				if it.err != nil {
					jb.err = it.err
					break
				}
				// Per-part deferred lists patched in part order are exactly
				// the concatenated global list.
				lz.ResolveDeferred(region, it.deferred)
			}
		}
		if jb.err != nil {
			op := &b.ops[jb.op]
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			// Un-reserve: a garbage block must never serve later reads.
			v.cache.remove(jb.fp)
		} else if jb.cacheSlot != nil {
			copy(jb.cacheSlot, region)
		}
	}
	for i := range b.ops {
		op := &b.ops[i]
		if op.src != srcPending {
			continue
		}
		jb := &b.jobs[op.job]
		if jb.err != nil {
			op.err = fmt.Errorf("volume: lba %d: %w", op.lba, jb.err)
			continue
		}
		copy(b.buf[i*bs:(i+1)*bs], b.buf[jb.op*bs:(jb.op+1)*bs])
	}
	b.close()
}

// Len returns the number of reads in the committed batch.
func (b *ReadBatch) Len() int { return len(b.ops) }

// Block returns read i's bytes (zeros when unmapped, garbage when Err(i)
// is non-nil). The slice aliases the batch's buffer and is valid until the
// next Plan.
func (b *ReadBatch) Block(i int) []byte {
	bs := b.v.cfg.BlockSize
	return b.buf[i*bs : (i+1)*bs]
}

// Latency returns read i's virtual latency.
func (b *ReadBatch) Latency(i int) time.Duration { return b.ops[i].lat }

// Err returns read i's error, nil on success.
func (b *ReadBatch) Err(i int) error { return b.ops[i].err }

// Errors counts failed reads in the batch.
func (b *ReadBatch) Errors() int {
	n := 0
	for i := range b.ops {
		if b.ops[i].err != nil {
			n++
		}
	}
	return n
}

// DecodedBlobs returns how many blob decodes the batch executed (cache
// hits, pending hits, and unmapped reads decode nothing).
func (b *ReadBatch) DecodedBlobs() int { return len(b.jobs) }

// DecodedParts returns how many parallel sub-block decode items ran
// (whole-blob fallback decodes count one each).
func (b *ReadBatch) DecodedParts() int { return len(b.items) }

// ReadBatch plans, decodes, and commits lbas in one call. The parallel
// phase fans out over pool when it is non-nil (a nil pool decodes inline,
// the determinism baseline). b may be nil to allocate a fresh batch;
// passing a previous batch back in recycles its buffers. The returned
// batch holds the per-read results.
//
// Virtual-time accounting is bit-identical to calling ReadInto per LBA in
// order, for any pool size — the clock only advances in Plan.
func (v *Volume) ReadBatch(b *ReadBatch, lbas []int64, pool *parallel.Pool) (*ReadBatch, error) {
	if b == nil {
		b = v.NewReadBatch()
	}
	if err := b.Plan(lbas); err != nil {
		return b, err
	}
	if pool != nil {
		pool.Map(b.Items(), b.RunItem)
	} else {
		for i := 0; i < b.Items(); i++ {
			b.RunItem(i)
		}
	}
	b.Commit()
	return b, nil
}
