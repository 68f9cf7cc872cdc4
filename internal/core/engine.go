package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"inlinered/internal/chunk"
	"inlinered/internal/cpusim"
	"inlinered/internal/dedup"
	"inlinered/internal/fault"
	"inlinered/internal/gpu"
	"inlinered/internal/lz"
	"inlinered/internal/metrics"
	"inlinered/internal/obs"
	"inlinered/internal/parallel"
	"inlinered/internal/sim"
	"inlinered/internal/ssd"
)

// Engine runs the integrated inline data reduction pipeline of Figure 1
// over one write stream. An Engine is single-use: build one per run with
// NewEngine, call Process once, then read the Report. It is not safe for
// concurrent use.
type Engine struct {
	plat  Platform
	cfg   Config
	cpu   *cpusim.CPU
	dev   *gpu.Device
	drive *ssd.Drive
	index *dedup.BinIndex
	gbins *dedup.GPUBins

	dataCursor   int64 // next free data byte (blobs pack into pages log-structured)
	dataLimit    int64 // data region size in bytes
	journalBase  int64 // first page of the journal region
	journalCur   int64
	journalLimit int64

	pendGPU  []gpuPending // unique chunks awaiting a GPU compression kernel
	retired  []retiredBatch
	inflight map[dedup.Fingerprint]*inflightRef

	journal *dedup.JournalWriter // durable image of every bin-buffer flush

	// Fault machinery. The injector is consulted only on the sequential
	// commit path (drive writes, journal flushes, kernel launches, index
	// inserts), never in the read-only prediction pass, so a fixed fault
	// seed stays bit-identical across Parallelism settings.
	faults      *fault.Injector
	gpuLost     bool // the device died; all GPU work re-routes to the CPU
	journalDead bool // journal writes failed permanently; index is memory-only

	// Observability. Like the fault injector, the recorder is driven only
	// from the sequential commit path, so a fixed seed traces identically
	// for any Parallelism; nil means off and bit-identical to HEAD.
	obs          *obs.Recorder
	cpuLanes     []obs.Lane // one trace lane per virtual hardware thread
	histJournal  sim.Histogram
	histGPUBatch sim.Histogram

	rep   Report
	ran   bool
	blobs map[int64][]byte // loc -> stored blob (Verify only)
	locs  []int64          // per chunk -> loc of its stored content (Verify only)

	// Wall-clock machinery. None of this affects the virtual clock: the
	// pool fans real computation out across host cores, and the buffer
	// pools recycle chunk payloads and blob destinations so the steady
	// state allocates nothing per chunk.
	par       int                // host workers (Config.Parallelism; 0 → NumCPU)
	pool      *parallel.Pool     // persistent workers for hash/compress fan-out
	hasher    *dedup.BatchHasher // batched fingerprinting through pool
	chunkBufs bufPool            // chunk payload buffers (chunker → pipeline)
	blobBufs  bufPool            // compression destination buffers

	// Per-batch scratch, reused across batches.
	ready       []time.Duration            // stage-2 ready times (hashEnd copy)
	pre         []preChunk                 // parallel pass results by chunk index
	uniq        []int                      // predicted-unique chunk indices
	seen        map[dedup.Fingerprint]bool // batch-local first occurrences
	hbFree      []*hashedBatch             // recycled batch headers
	batchSlices [][][]byte                 // recycled chunk-pointer slices

	// The precompute fan-out body, built once in NewEngine so the
	// per-batch Map call allocates no closure; its inputs ride in the
	// pre* fields below, published before Map and read only by workers
	// inside it.
	preFn        func(int)
	preChunks    [][]byte
	preGPUMode   bool
	preThreshold float64

	// GPU compression batch scratch, reused across kernel launches.
	subResults []lz.SubBlockResult
	subErrs    []error
	perLane    []float64
}

// bufPool is a LIFO free list of byte buffers. Unlike sync.Pool it never
// boxes the slice header into an interface, so a steady-state Get/Put
// cycle is allocation-free (the whole point of threading it through the
// data plane). Safe for concurrent use by the compression workers.
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// Get returns a zero-length buffer with at least the requested capacity.
func (b *bufPool) Get(capacity int) []byte {
	b.mu.Lock()
	for n := len(b.free); n > 0; n = len(b.free) {
		buf := b.free[n-1]
		b.free = b.free[:n-1]
		if cap(buf) >= capacity {
			b.mu.Unlock()
			return buf
		}
		// Undersized stragglers (e.g. a short final chunk) are dropped.
	}
	b.mu.Unlock()
	return make([]byte, 0, capacity)
}

// Put returns a buffer to the pool once its contents are dead.
func (b *bufPool) Put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	b.mu.Lock()
	b.free = append(b.free, buf[:0])
	b.mu.Unlock()
}

// gpuPending is one unique chunk queued for the GPU compression kernel.
type gpuPending struct {
	data  []byte
	fp    dedup.Fingerprint
	ready time.Duration // index decision completed
	idx   int64         // stream chunk index (Verify bookkeeping)
}

// retiredBatch is a GPU compression batch whose kernel has completed at
// virtual time t; its CPU post-processing is scheduled once the CPU
// frontier catches up, so the commit order matches the virtual-time order.
type retiredBatch struct {
	t     time.Duration
	pend  []gpuPending
	blobs [][]byte
}

// inflightRef tracks a unique chunk between its index miss and its index
// insert (the dedup-before-compression window of Figure 1: the bin buffer
// is only updated after compression). Later occurrences of the same
// fingerprint inside that window are duplicates of a chunk that has no
// location yet.
type inflightRef struct {
	waiters []int64 // chunk indices awaiting the location (Verify only)
}

// NewEngine builds a pipeline for the platform and configuration.
func NewEngine(plat Platform, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	needGPU := (cfg.Dedup && cfg.Mode.UsesGPUDedup()) || (cfg.Compress && cfg.Mode.UsesGPUCompress())
	if needGPU && !plat.HasGPU {
		return nil, fmt.Errorf("core: mode %s needs a GPU but the platform has none", cfg.Mode)
	}
	e := &Engine{plat: plat, cfg: cfg}
	e.cpu = cpusim.New(plat.CPU)
	e.drive = ssd.New(plat.SSD)
	if plat.HasGPU && needGPU {
		e.dev = gpu.New(plat.GPU)
	}
	if cfg.Dedup {
		idx, err := dedup.NewBinIndex(cfg.Index)
		if err != nil {
			return nil, err
		}
		e.index = idx
		e.journal = dedup.NewJournalWriter(cfg.Index.PrefixBytes)
		if cfg.Mode.UsesGPUDedup() {
			if cfg.GPUBinBits > cfg.Index.BinBits {
				return nil, fmt.Errorf("core: GPU bins (%d bits) must be no finer than CPU bins (%d bits) so one flush lands in one GPU bin",
					cfg.GPUBinBits, cfg.Index.BinBits)
			}
			g, err := dedup.NewGPUBins(e.dev, cfg.GPUBinBits, cfg.GPUBinCap, cfg.Index.PrefixBytes, 1)
			if err != nil {
				return nil, err
			}
			e.gbins = g
		}
	}
	// Carve the journal region out of the top of the logical space.
	logical := e.drive.LogicalPages()
	reserve := logical / 16
	if reserve < 1 {
		reserve = 1
	}
	e.journalBase = logical - reserve
	e.journalCur = e.journalBase
	e.journalLimit = logical
	e.dataLimit = e.journalBase * int64(e.drive.PageSize)
	if cfg.Faults.Enabled() {
		e.faults = fault.New(cfg.Faults)
		e.drive.SetFaultInjector(e.faults)
		if e.dev != nil {
			e.dev.SetFaultInjector(e.faults)
		}
		if e.index != nil {
			e.index.SetFaultInjector(e.faults)
		}
	}
	if cfg.Obs != nil {
		e.obs = cfg.Obs
		// Lane registration order fixes the pid/tid assignment: CPU hardware
		// threads first, then the SSD channels, then the GPU queue and link.
		e.cpuLanes = make([]obs.Lane, e.cpu.Pool.Servers())
		for i := range e.cpuLanes {
			e.cpuLanes[i] = cfg.Obs.Lane("cpu", fmt.Sprintf("t%d", i))
		}
		e.drive.SetRecorder(cfg.Obs)
		e.drive.MarkJournalRegion(e.journalBase)
		if e.dev != nil {
			e.dev.SetRecorder(cfg.Obs)
		}
	}
	if cfg.Verify {
		e.blobs = make(map[int64][]byte)
	}
	e.inflight = make(map[dedup.Fingerprint]*inflightRef)
	e.par = cfg.Parallelism
	if e.par <= 0 {
		e.par = runtime.NumCPU()
	}
	e.pool = parallel.New(e.par)
	e.hasher = dedup.NewBatchHasher(e.pool)
	e.preFn = func(k int) {
		i := e.uniq[k]
		c := e.preChunks[i]
		pc := &e.pre[i]
		if e.cfg.SkipIncompressible {
			pc.entropy = true
			pc.incompressible = lz.LikelyIncompressible(c, e.preThreshold)
			if pc.incompressible {
				pc.blob = lz.StoreRaw(e.blobBufs.Get(len(c)+blobHeadroom), c)
				pc.done = true
				return
			}
		}
		if e.preGPUMode {
			return // the chunk joins the GPU pending queue instead
		}
		pc.blob, pc.stats = lz.CompressCodec(e.cfg.Codec, e.blobBufs.Get(len(c)+blobHeadroom), c, e.cfg.LZ)
		pc.done = true
	}
	if cfg.Dedup {
		e.seen = make(map[dedup.Fingerprint]bool)
	}
	e.rep.Mode = cfg.Mode
	return e, nil
}

// Drive exposes the engine's SSD for post-run inspection (endurance
// experiments).
func (e *Engine) Drive() *ssd.Drive { return e.drive }

// Index exposes the engine's CPU bin index for post-run inspection.
func (e *Engine) Index() *dedup.BinIndex { return e.index }

// JournalImage returns the serialized index journal — the durable form of
// every bin-buffer flush the run wrote to the SSD's journal region.
func (e *Engine) JournalImage() []byte {
	if e.journal == nil {
		return nil
	}
	return e.journal.Bytes()
}

// RecoverIndex rebuilds an index from the run's journal — what a restart
// after a crash would reconstruct. Recovery is lenient: a trailing torn or
// corrupt record truncates the journal there, and everything before the
// truncation point is applied as a consistent prefix of the flush history
// (the returned Recovery says what was salvaged). Entries still in bin
// buffers at the crash point (never journaled) are absent; their future
// duplicates would be stored again, the memory-only-index tradeoff of §3.1.
func (e *Engine) RecoverIndex() (*dedup.BinIndex, dedup.Recovery, error) {
	if e.journal == nil {
		return nil, dedup.Recovery{}, fmt.Errorf("core: no journal: deduplication disabled")
	}
	return dedup.RecoverJournal(e.journal.Bytes(), e.cfg.Index)
}

// RecoverIndexStrict replays the journal refusing any corruption: a torn
// or bit-flipped record fails the whole replay with dedup.ErrJournalCorrupt.
// Use it when the journal is expected pristine (clean shutdown).
func (e *Engine) RecoverIndexStrict() (*dedup.BinIndex, error) {
	if e.journal == nil {
		return nil, fmt.Errorf("core: no journal: deduplication disabled")
	}
	return dedup.ReplayJournal(e.journal.Bytes(), e.cfg.Index)
}

// Process runs the whole stream through the pipeline and returns the run
// report. It may be called once per Engine. The returned *Report aliases
// the engine's own state, so holding it keeps the engine reachable, and
// with it the drive blocks the run wrote; copy the Report to retain only
// the numbers.
func (e *Engine) Process(r io.Reader) (*Report, error) {
	if e.ran {
		return nil, fmt.Errorf("core: Engine.Process is single-use; build a new Engine")
	}
	e.ran = true

	defer e.pool.Close()

	// Chunking/hashing has no dependency on anything downstream, so batch
	// N+1's hashing is scheduled before batch N's indexing and compression:
	// this keeps the virtual CPU pool work-conserving, the way an open-loop
	// pipeline with a full input queue behaves on real hardware.
	ck := e.newChunker(r)
	var window []*hashedBatch
	batch := e.getBatchSlice()
	for {
		// Wall-clock chunk stage (metrics side channel; the virtual-time
		// charge for chunking happens in hashBatch, untouched).
		ckStart := metrics.Clock()
		c, err := ck.Next()
		metrics.StageChunk.ObserveSince(ckStart)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading stream: %w", err)
		}
		batch = append(batch, c.Data)
		if len(batch) == e.cfg.Batch {
			window = append(window, e.hashBatch(batch))
			batch = e.getBatchSlice()
			if len(window) > e.cfg.Lookahead {
				// Screen the batch that will be processed next while this
				// one runs: the GPU round trip hides behind one batch of
				// CPU work, and the device snapshot is at most one batch
				// stale.
				if len(window) > 1 {
					e.screen(window[1])
				}
				if err := e.downstream(window[0]); err != nil {
					return nil, err
				}
				e.recycleBatch(window[0])
				window = window[1:]
			}
		}
	}
	if len(batch) > 0 {
		window = append(window, e.hashBatch(batch))
	}
	for i, hb := range window {
		if i+1 < len(window) {
			e.screen(window[i+1])
		}
		if err := e.downstream(hb); err != nil {
			return nil, err
		}
		e.recycleBatch(hb)
	}
	if err := e.flushGPUCompress(); err != nil {
		return nil, err
	}
	for len(e.retired) > 0 {
		if err := e.retireBatch(e.retired[0]); err != nil {
			return nil, err
		}
		e.retired = e.retired[1:]
	}
	e.finalFlush()
	e.finish()
	return &e.rep, nil
}

// newChunker builds the configured chunker over r, with chunk payload
// buffers drawn from the engine's pool (the pipeline returns each buffer
// once the chunk's data is dead).
func (e *Engine) newChunker(r io.Reader) chunk.Chunker {
	if e.cfg.Chunker == CDCChunking {
		g := chunk.NewGear(r, e.cfg.Gear)
		g.SetBuffers(&e.chunkBufs)
		return g
	}
	f := chunk.NewFixed(r, e.cfg.ChunkSize)
	f.SetBuffers(&e.chunkBufs)
	return f
}

// getBatchSlice returns an empty chunk-pointer slice, recycled from a
// completed batch when possible.
func (e *Engine) getBatchSlice() [][]byte {
	if n := len(e.batchSlices); n > 0 {
		s := e.batchSlices[n-1]
		e.batchSlices = e.batchSlices[:n-1]
		return s
	}
	return make([][]byte, 0, e.cfg.Batch)
}

// recycleBatch reclaims a fully processed batch's header and slices. The
// chunk payload buffers themselves were already returned as each chunk
// committed (or handed to the GPU pending queue).
func (e *Engine) recycleBatch(hb *hashedBatch) {
	e.batchSlices = append(e.batchSlices, hb.chunks[:0])
	hb.chunks = nil
	hb.ghits = nil
	hb.screened = false
	hb.ready = 0
	hb.screenEnd = 0
	e.hbFree = append(e.hbFree, hb)
}

// hashedBatch is a batch that has been through stage 1 (chunk + hash) and,
// when the GPU owns dedup, GPU screening.
type hashedBatch struct {
	chunks  [][]byte
	fps     []dedup.Fingerprint
	hashEnd []time.Duration
	ready   time.Duration // max hash end

	screened  bool
	ghits     []dedup.GPUHit
	screenEnd time.Duration
}

// hashBatch schedules stage 1: chunking + fingerprinting on the CPU pool
// (no cross-chunk dependency, §3.1 — every hardware thread hashes chunks
// independently; every chunk "arrives" at time zero, open loop).
func (e *Engine) hashBatch(chunks [][]byte) *hashedBatch {
	hashStart := metrics.Clock()
	defer metrics.StageHash.ObserveSince(hashStart)
	cost := e.cpu.Cost
	var hb *hashedBatch
	if n := len(e.hbFree); n > 0 {
		hb, e.hbFree = e.hbFree[n-1], e.hbFree[:n-1]
	} else {
		hb = &hashedBatch{}
	}
	hb.chunks = chunks
	hb.fps = e.hasher.SumInto(hb.fps, chunks)
	if cap(hb.hashEnd) >= len(chunks) {
		hb.hashEnd = hb.hashEnd[:len(chunks)]
	} else {
		hb.hashEnd = make([]time.Duration, len(chunks))
	}
	for i, c := range chunks {
		chunkCycles := cost.ChunkCycles(len(c)) + cost.StageOverheadCycles
		hashCycles := 0.0
		if e.cfg.Dedup {
			hashCycles = cost.HashCycles(len(c))
		}
		var start time.Duration
		start, hb.hashEnd[i] = e.cpu.Run(0, chunkCycles+hashCycles)
		e.cpuSpan("chunk+hash", start, hb.hashEnd[i])
		hb.ready = sim.MaxTime(hb.ready, hb.hashEnd[i])
		e.rep.Stages.Chunking += e.seconds(chunkCycles)
		e.rep.Stages.Hashing += e.seconds(hashCycles)
	}
	return hb
}

// screen runs the GPU batch-indexing round trip for a freshly hashed batch
// (§3.1(3)): the hashes are on hand long before a CPU worker picks the
// batch up (the input queue is deep in an open-loop measurement — the
// paper's "CPU utilization is full" regime), so the GPU prescreens the
// batch while it waits, unless the GPU itself is backlogged ("we decide to
// use GPU only when ... there is still some work to do for indexing" — a
// busy GPU queue means there is not).
func (e *Engine) screen(hb *hashedBatch) {
	if e.gbins == nil || hb.screened || e.gpuLost {
		return
	}
	// Anchor at the later of hash completion and the CPU frontier (the
	// screening is issued as the previous batch starts processing).
	// Figure 1's rule: "GPU indexing is performed if the GPU is available"
	// — a backlogged queue (compression kernels in GPUBoth, or a slow
	// device) means the batch takes the CPU path instead. This is also
	// §3.1(3)'s "still some work to do" guard.
	at := sim.MaxTime(hb.ready, e.cpu.Pool.NextFree())
	if e.dev.NextFree() > at {
		return
	}
	gdone, ghits, _, err := e.gbins.BatchIndex(at, hb.fps)
	if err != nil {
		// The only failure a batch probe can hit is device loss. The batch
		// simply stays unscreened: the CPU index path below handles it, and
		// every later batch skips the GPU entirely.
		e.gpuDied()
		return
	}
	// Host-side result merge: one staging pass over the batch.
	mergeCycles := e.cpu.Cost.MemcpyCycles(8*len(hb.fps)) + e.cpu.Cost.StageOverheadCycles
	mergeStart, mergeEnd := e.cpu.Run(gdone, mergeCycles)
	e.cpuSpan("merge-results", mergeStart, mergeEnd)
	e.rep.Stages.GPUMerge += e.seconds(mergeCycles)
	hb.screened = true
	hb.ghits = ghits
	hb.screenEnd = mergeEnd
	e.rep.GPUIndexBatches++
	e.rep.GPUIndexedChunks += int64(len(hb.fps))
}

// preChunk is one chunk's precomputed real computation: the entropy
// decision and, when the chunk stays on the CPU, its finished blob and
// encode stats. Produced by the parallel pass, consumed (or returned to
// the buffer pool) by the commit pass.
type preChunk struct {
	entropy        bool // incompressible below is valid
	incompressible bool
	done           bool // blob (and stats, for compressed blobs) are valid
	blob           []byte
	stats          lz.Stats
}

// entropyThreshold returns the bypass cutoff in bits/byte.
func (e *Engine) entropyThreshold() float64 {
	if e.cfg.EntropyThreshold != 0 {
		return e.cfg.EntropyThreshold
	}
	return 7.2
}

// precompute is the wall-clock fan-out half of the tentpole: a sequential
// dedup-decision pass predicts which chunks the commit pass will treat as
// unique (cheap read-only probes, first-occurrence semantics), then the
// persistent worker pool runs the real computation — entropy pre-checks
// and CPU LZSS/QLZ encodes — for those chunks concurrently. The commit
// pass remains the source of truth: it re-probes with interleaved inserts
// so the virtual-time accounting is bit-identical to a serial run, and it
// falls back to inline computation for the rare chunk whose prediction was
// upset by a concurrent-capacity eviction. Returns nil when there is
// nothing worth fanning out (serial runs, GPU-owned compression).
func (e *Engine) precompute(hb *hashedBatch) []preChunk {
	if e.par <= 1 || !e.cfg.Compress {
		return nil
	}
	gpuMode := e.cfg.Mode.UsesGPUCompress() && !e.gpuLost
	if gpuMode && !e.cfg.SkipIncompressible {
		return nil // all real compression happens in the GPU batch path
	}
	chunks, fps := hb.chunks, hb.fps

	// Pass 1 — sequential dedup decisions. A chunk will commit as unique
	// iff no screening hit, no index hit, no in-flight twin, and no earlier
	// first occurrence in this same batch.
	decideStart := metrics.Clock()
	uniq := e.uniq[:0]
	if !e.cfg.Dedup {
		for i := range chunks {
			uniq = append(uniq, i)
		}
	} else {
		clear(e.seen)
		for i := range chunks {
			if hb.screened && hb.ghits[i].Found {
				continue
			}
			var found bool
			if hb.screened {
				found = e.index.LookupBuffer(fps[i]).Found
			} else {
				found = e.index.Lookup(fps[i]).Found
			}
			if found {
				continue
			}
			if _, ok := e.inflight[fps[i]]; ok {
				continue
			}
			if e.seen[fps[i]] {
				continue
			}
			e.seen[fps[i]] = true
			uniq = append(uniq, i)
		}
	}
	e.uniq = uniq
	metrics.StageDedupDecide.ObserveSince(decideStart)
	if len(uniq) == 0 {
		return nil
	}

	// Pass 2 — parallel real computation over the predicted uniques,
	// through the persistent closure (preFn) so the per-batch Map call
	// allocates nothing.
	pre := e.pre[:0]
	for len(pre) < len(chunks) {
		pre = append(pre, preChunk{})
	}
	e.pre = pre
	e.preChunks = chunks
	e.preGPUMode = gpuMode
	e.preThreshold = e.entropyThreshold()
	compressStart := metrics.Clock()
	e.pool.Map(len(uniq), e.preFn)
	metrics.StageCompress.ObserveSince(compressStart)
	e.preChunks = nil
	return pre
}

// blobHeadroom is the extra destination capacity beyond the source length
// a blob may need (mode byte + uvarint length for the raw fallback).
const blobHeadroom = 16

// releasePre returns an unconsumed precomputed blob to the pool (the
// chunk turned out to be a duplicate).
func (e *Engine) releasePre(pre []preChunk, i int) {
	if pre == nil || !pre[i].done {
		return
	}
	e.blobBufs.Put(pre[i].blob)
	pre[i] = preChunk{}
}

// downstream pushes a hashed batch through index → compress → insert/destage.
func (e *Engine) downstream(hb *hashedBatch) error {
	if err := e.retireDue(); err != nil {
		return err
	}
	cost := e.cpu.Cost
	chunks, fps := hb.chunks, hb.fps

	// Parallel pass: fan the batch's real computation out across the host
	// cores before the sequential commit below (wall-clock only — the
	// virtual clock is charged in the commit pass, in stream order).
	pre := e.precompute(hb)

	// Wall-clock commit stage: everything below — probes, inserts, inline
	// fallbacks, destage — runs sequentially on this goroutine.
	commitStart := metrics.Clock()
	defer metrics.StageCommit.ObserveSince(commitStart)

	// Stages 2+ commit per chunk in stream order: probe (Figure 1: GPU
	// screening result, bin buffer, bin tree), then for uniques compress →
	// insert → destage. Running probe and insert in stream order keeps
	// within-batch duplicates exact: a chunk's probe sees every earlier
	// chunk's insert (or its in-flight entry while the GPU compressor
	// holds it). The ready times are a scratch copy so the per-chunk
	// updates below never mutate the batch's own hashEnd record.
	ready := append(e.ready[:0], hb.hashEnd...)
	e.ready = ready
	if hb.screened {
		for i := range ready {
			ready[i] = hb.screenEnd
		}
	}
	for i, c := range chunks {
		e.rep.Chunks++
		e.rep.Bytes += int64(len(c))
		dup := false
		var dupLoc int64
		if e.cfg.Dedup {
			switch {
			case hb.screened && hb.ghits[i].Found:
				dup = true
				dupLoc = hb.ghits[i].Entry.Loc
				e.rep.DupHitsGPU++
			default:
				// A GPU-screened miss can only be a recent (unflushed)
				// hash: everything the tree holds is mirrored in the GPU
				// bins, so the CPU checks the bin buffer only. Unscreened
				// chunks take the full path: bin buffer, then bin tree.
				var p dedup.Probe
				if hb.screened {
					p = e.index.LookupBuffer(fps[i])
				} else {
					p = e.index.Lookup(fps[i])
				}
				probeCycles := cost.ProbeCycles(p.BufferScanned, p.TreeSteps)
				start, end := e.cpu.Run(ready[i], probeCycles)
				e.cpuSpan("probe", start, end)
				ready[i] = end
				e.rep.Stages.Indexing += e.seconds(probeCycles)
				if p.Found {
					dup = true
					dupLoc = p.Entry.Loc
					if p.InBuffer {
						e.rep.DupHitsBuffer++
					} else {
						e.rep.DupHitsTree++
					}
				}
			}
			if !dup {
				// The chunk may duplicate a unique still in flight to the
				// GPU compressor (not yet inserted into the index).
				if ref, ok := e.inflight[fps[i]]; ok {
					e.rep.DupChunks++
					e.rep.DupHitsPending++
					if e.cfg.Verify {
						ref.waiters = append(ref.waiters, e.rep.Chunks-1)
						e.locs = append(e.locs, -1)
					}
					e.releasePre(pre, i)
					e.chunkBufs.Put(c)
					continue
				}
			}
		}
		if dup {
			e.rep.DupChunks++
			if e.cfg.Verify {
				e.locs = append(e.locs, dupLoc)
			}
			e.releasePre(pre, i)
			e.chunkBufs.Put(c)
			continue
		}
		e.rep.UniqueChunks++
		e.rep.UniqueBytes += int64(len(c))
		skipCycles := 0.0
		if e.cfg.Compress && e.cfg.SkipIncompressible {
			skipCycles = cost.EntropyCycles(len(c))
			var incompressible bool
			if pre != nil && pre[i].entropy {
				incompressible = pre[i].incompressible
			} else {
				incompressible = lz.LikelyIncompressible(c, e.entropyThreshold())
			}
			if incompressible {
				// Bypass: store raw; the histogram pass is the only cost.
				e.rep.SkippedIncompressible++
				var blob []byte
				if pre != nil && pre[i].done {
					blob = pre[i].blob
					pre[i] = preChunk{}
				} else {
					blob = lz.StoreRaw(e.blobBufs.Get(len(c)+blobHeadroom), c)
				}
				base := skipCycles + cost.MemcpyCycles(len(blob)) + cost.StageOverheadCycles
				e.rep.Stages.Compression += e.seconds(base)
				err := e.finishUnique(fps[i], blob, ready[i], base, int(e.rep.Chunks-1), "store-raw")
				e.chunkBufs.Put(c)
				if err != nil {
					return err
				}
				continue
			}
		}
		if e.cfg.Compress && e.cfg.Mode.UsesGPUCompress() && !e.gpuLost {
			if e.cfg.Dedup {
				e.inflight[fps[i]] = &inflightRef{}
			}
			// The chunk buffer rides along: it is recycled when the GPU
			// batch's blobs have been computed (flushGPUCompress).
			e.pendGPU = append(e.pendGPU, gpuPending{data: c, fp: fps[i], ready: ready[i], idx: e.rep.Chunks - 1})
			if e.cfg.Verify {
				e.locs = append(e.locs, -1) // patched when the GPU batch retires
			}
			if len(e.pendGPU) >= e.cfg.GPUCompressBatch {
				if err := e.flushGPUCompress(); err != nil {
					return err
				}
			}
			continue
		}
		// CPU compression (or raw store when compression is off). The
		// compress and index-insert work is fused into one CPU job: the
		// worker thread that compressed the chunk finishes it. The blob
		// and stats normally come from the parallel pass; the inline path
		// covers serial runs and prediction upsets (see precompute).
		var blob []byte
		var baseCycles float64
		spanName := "store-raw"
		if e.cfg.Compress {
			var st lz.Stats
			if pre != nil && pre[i].done {
				blob, st = pre[i].blob, pre[i].stats
				pre[i] = preChunk{}
			} else {
				blob, st = lz.CompressCodec(e.cfg.Codec, e.blobBufs.Get(len(c)+blobHeadroom), c, e.cfg.LZ)
			}
			baseCycles = skipCycles + cost.CompressCycles(st.Positions, st.SearchSteps, st.DstBytes) + cost.StageOverheadCycles
			spanName = "compress+insert"
		} else {
			blob = lz.StoreRaw(e.blobBufs.Get(len(c)+blobHeadroom), c)
			baseCycles = cost.MemcpyCycles(len(blob)) + cost.StageOverheadCycles
		}
		e.rep.Stages.Compression += e.seconds(baseCycles)
		err := e.finishUnique(fps[i], blob, ready[i], baseCycles, int(e.rep.Chunks-1), spanName)
		e.chunkBufs.Put(c)
		if err != nil {
			return err
		}
	}
	return nil
}

// flushGPUCompress launches one GPU compression kernel over the pending
// unique chunks (§3.2(2)): DMA the chunk batch to the device, run
// SubBlocks lanes per chunk, DMA the raw lane streams back, and
// post-process each chunk on the CPU.
func (e *Engine) flushGPUCompress() error {
	if len(e.pendGPU) == 0 {
		return nil
	}
	pend := e.pendGPU
	e.pendGPU = nil

	batchReady := time.Duration(0)
	srcBytes := 0
	for _, p := range pend {
		batchReady = sim.MaxTime(batchReady, p.ready)
		srcBytes += len(p.data)
	}
	if e.gpuLost {
		// The device died after these chunks were queued (a screening probe
		// found it first): the whole batch takes the CPU path.
		return e.fallbackCPUCompress(pend, batchReady)
	}
	gcost := e.dev.Cost
	t := e.dev.TransferToDevice(batchReady, srcBytes)

	// The kernel: every chunk gets Sub.SubBlocks lanes, each compressing
	// its own sub-block for real. Lane costs come from the real encoder
	// work; wavefront lockstep and divergence are charged by the profile.
	// The result/lane-cost slices are engine scratch, reused per launch.
	results := e.subResults[:0]
	for len(results) < len(pend) {
		results = append(results, lz.SubBlockResult{})
	}
	e.subResults = results
	gpuCompressStart := metrics.Clock()
	e.pool.Map(len(pend), func(i int) {
		results[i] = lz.CompressSubBlocks(pend[i].data, e.cfg.Sub)
	})
	metrics.StageCompress.ObserveSince(gpuCompressStart)
	perLane := e.perLane[:0]
	rawBytes := 0
	for _, res := range results {
		for _, l := range res.Lanes {
			perLane = append(perLane, gcost.CompressBaseCycles+
				float64(l.Stats.Positions)*gcost.CompressCyclesPerPosition+
				float64(l.Stats.SearchSteps)*gcost.MatchStepCycles+
				float64(l.Stats.DstBytes)*gcost.EmitCyclesPerByte)
		}
		rawBytes += res.RawBytes()
	}
	e.perLane = perLane
	kernel := gpu.KernelFunc{Label: "subblock-lz", Fn: func() gpu.Profile {
		p := gpu.Wavefronts(perLane, e.dev.WavefrontSize)
		p.LocalBytes = int64(srcBytes)
		return p
	}}
	var err error
	t, _, err = e.dev.Launch(t, kernel)
	if err != nil {
		if !errors.Is(err, fault.ErrDeviceLost) {
			return err
		}
		// Device lost mid-kernel: the host learns from the failed dispatch,
		// abandons the device results, and re-runs the batch on the CPU.
		// Already-retired batches stay valid; everything from here on is
		// CPU-only.
		e.gpuDied()
		return e.fallbackCPUCompress(pend, t)
	}
	t = e.dev.TransferFromDevice(t, rawBytes+8*len(pend))
	if e.obs != nil {
		// GPU batch turnaround: from the batch being ready on the host to
		// the compressed lanes landing back in host memory.
		e.histGPUBatch.Observe(t - batchReady)
	}

	// CPU post-processing: stitch each chunk's lanes into the final blob.
	// The blobs are computed now, but their CPU jobs are committed when the
	// CPU frontier reaches the kernel completion time (retireDue), so the
	// virtual pool stays work-conserving.
	blobs := make([][]byte, len(pend)) // escapes into the retired batch
	errs := e.subErrs[:0]
	for len(errs) < len(pend) {
		errs = append(errs, nil)
	}
	e.subErrs = errs
	postStart := metrics.Clock()
	e.pool.Map(len(pend), func(i int) {
		blobs[i], _, errs[i] = lz.PostProcessOrRaw(e.blobBufs.Get(len(pend[i].data)+blobHeadroom), pend[i].data, results[i])
	})
	metrics.StageCompress.ObserveSince(postStart)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The blobs are self-contained copies, so the chunk payload buffers are
	// dead from here on.
	for i := range pend {
		e.chunkBufs.Put(pend[i].data)
		pend[i].data = nil
	}
	e.retired = append(e.retired, retiredBatch{t: t, pend: pend, blobs: blobs})
	return nil
}

// gpuDied records an injected device loss: the GPU is dead for the rest of
// the run, and all of its work re-routes to the CPU paths.
func (e *Engine) gpuDied() {
	e.gpuLost = true
	e.rep.Faults.GPUDeviceLost = true
}

// fallbackCPUCompress is the degraded path for a GPU compression batch whose
// kernel could not run: the pending unique chunks are compressed with the
// CPU codec (fanned out across host workers for wall-clock, charged to the
// virtual CPU pool in stream order) and committed exactly as CPU-mode
// uniques. The chunks become ready no earlier than at, the virtual time the
// host learned of the loss.
func (e *Engine) fallbackCPUCompress(pend []gpuPending, at time.Duration) error {
	e.rep.Faults.GPUFallbackBatches++
	cost := e.cpu.Cost
	blobs := make([][]byte, len(pend))
	stats := make([]lz.Stats, len(pend))
	fbStart := metrics.Clock()
	e.pool.Map(len(pend), func(i int) {
		blobs[i], stats[i] = lz.CompressCodec(e.cfg.Codec, e.blobBufs.Get(len(pend[i].data)+blobHeadroom), pend[i].data, e.cfg.LZ)
	})
	metrics.StageCompress.ObserveSince(fbStart)
	for i, p := range pend {
		base := cost.CompressCycles(stats[i].Positions, stats[i].SearchSteps, stats[i].DstBytes) + cost.StageOverheadCycles
		e.rep.Stages.Compression += e.seconds(base)
		err := e.finishUnique(p.fp, blobs[i], sim.MaxTime(p.ready, at), base, int(p.idx), "cpu-fallback")
		e.chunkBufs.Put(pend[i].data)
		pend[i].data = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// retireDue commits the post-processing of every GPU compression batch
// whose kernel has completed by the current CPU frontier.
func (e *Engine) retireDue() error {
	for len(e.retired) > 0 && e.retired[0].t <= e.cpu.Pool.NextFree() {
		if err := e.retireBatch(e.retired[0]); err != nil {
			return err
		}
		e.retired = e.retired[1:]
	}
	return nil
}

// retireBatch schedules a retired GPU batch's CPU post-processing and
// finishes its chunks.
func (e *Engine) retireBatch(rb retiredBatch) error {
	cost := e.cpu.Cost
	for i, p := range rb.pend {
		base := cost.PostProcessCycles(len(rb.blobs[i])) + cost.StageOverheadCycles
		e.rep.Stages.PostProcess += e.seconds(base)
		if err := e.finishUnique(p.fp, rb.blobs[i], rb.t, base, int(p.idx), "post-process+insert"); err != nil {
			return err
		}
	}
	return nil
}

// finishUnique finishes a unique chunk: one fused CPU job (compression or
// post-processing plus the bin-buffer insert — the worker that produced the
// blob also files it, so no dependency bubble), then the destage write and,
// on a bin-buffer flush, the sequential journal write plus the GPU bin
// update (Figure 1).
//
// Blobs pack into SSD pages log-structured: the blob lands at the next free
// byte offset, and the destage write covers exactly the pages the blob
// completes, so compression savings translate into page savings.
func (e *Engine) finishUnique(fp dedup.Fingerprint, blob []byte, ready time.Duration, baseCycles float64, chunkIdx int, spanName string) error {
	cost := e.cpu.Cost
	loc := e.dataCursor
	if loc+int64(len(blob)) > e.dataLimit {
		return fmt.Errorf("core: drive full: data region needs byte %d of %d", loc+int64(len(blob)), e.dataLimit)
	}
	pageSize := int64(e.drive.PageSize)
	firstPage := loc / pageSize
	e.dataCursor += int64(len(blob))
	pages := e.dataCursor/pageSize - firstPage // pages this blob completes
	e.rep.StoredBytes += int64(len(blob))
	if e.cfg.Verify {
		e.blobs[loc] = blob
		if chunkIdx < len(e.locs) && e.locs[chunkIdx] == -1 {
			e.locs[chunkIdx] = loc // GPU-batched chunk retiring late
		} else {
			e.locs = append(e.locs, loc)
		}
	}

	cycles := baseCycles
	var flush *dedup.Flush
	if e.cfg.Dedup {
		if ref, ok := e.inflight[fp]; ok {
			for _, w := range ref.waiters {
				e.locs[w] = loc
			}
			delete(e.inflight, fp)
		}
		ir := e.index.Insert(fp, dedup.Entry{Loc: loc, Size: uint32(len(blob))})
		insCycles := cost.InsertCycles + float64(ir.BufferScanned)*cost.BufferEntryCycles
		if ir.Flush != nil {
			insCycles += float64(ir.Flush.TreeSteps) * cost.TreeStepCycles
			flush = ir.Flush
		}
		cycles += insCycles
		e.rep.Stages.Insert += e.seconds(insCycles)
	}
	start, end := e.cpu.Run(ready, cycles)
	e.cpuSpan(spanName, start, end)
	if pages > 0 {
		if _, err := e.writeDrive(end, firstPage, int(pages)); err != nil {
			return err
		}
	}
	if flush != nil {
		e.journalFlush(end, flush)
		if e.gbins != nil && !e.gpuLost {
			if _, err := e.gbins.Update(end, e.gpuBin(flush.Bin), flush.Keys(), flush.Values()); err != nil {
				return err
			}
		}
	}
	if !e.cfg.Verify {
		// Verify retains the blob in e.blobs; otherwise it is dead now.
		e.blobBufs.Put(blob)
	}
	return nil
}

// seconds converts CPU cycles into seconds of core time for the stage
// breakdown.
func (e *Engine) seconds(cycles float64) float64 {
	return cycles / e.plat.CPU.ClockHz
}

// cpuSpan records one committed CPU job on the trace lane of the virtual
// hardware thread that ran it (the server the pool just placed the job on).
// Must be called immediately after the e.cpu.Run that scheduled the job.
func (e *Engine) cpuSpan(name string, start, end time.Duration) {
	if e.obs == nil {
		return
	}
	e.obs.Span(e.cpuLanes[e.cpu.Pool.LastServer()], name, start, end)
}

// gpuBin maps a CPU bin id onto the coarser GPU bin grid: both are leading
// fingerprint bits, so the GPU bin is the CPU bin's top GPUBinBits bits.
func (e *Engine) gpuBin(cpuBin uint32) uint32 {
	return cpuBin >> uint(e.cfg.Index.BinBits-e.cfg.GPUBinBits)
}

// writeDrive issues one drive write with the shared bounded-retry policy:
// transient errors are retried up to fault.MaxRetries times with
// exponential backoff charged to the virtual clock; a permanent error (or
// an exhausted retry budget) surfaces to the caller.
func (e *Engine) writeDrive(at time.Duration, lpn int64, pages int) (time.Duration, error) {
	for attempt := 0; ; attempt++ {
		end, err := e.drive.Write(at, lpn, pages)
		if err == nil {
			return end, nil
		}
		if !fault.IsTransient(err) || attempt >= fault.MaxRetries {
			return end, err
		}
		e.rep.Faults.SSDWriteRetries++
		at += fault.Backoff(attempt)
	}
}

// journalFlush persists one bin-buffer flush record. An injected torn
// record simulates a crash mid-write: only the leading bytes of the record
// reach the image, so recovery truncates the journal there. A permanent
// journal-write failure degrades gracefully — journaling stops, the run
// continues with a memory-only index (§3.3's documented tradeoff), and the
// failure is counted.
func (e *Engine) journalFlush(at time.Duration, f *dedup.Flush) {
	if e.journal == nil || e.journalDead {
		return
	}
	flushStart := metrics.Clock()
	defer metrics.StageJournalCore.ObserveSince(flushStart)
	if frac, torn := e.faults.TornFraction(); torn {
		e.journal.AppendTorn(f, frac)
		e.rep.Faults.JournalTornRecords++
		_, _ = e.writeJournal(at, f.Bytes) // the partial write still happened
		return
	}
	end, err := e.writeJournal(at, f.Bytes)
	if err != nil {
		e.journalDead = true
		e.rep.Faults.JournalWriteFailures++
		return
	}
	if e.obs != nil {
		e.histJournal.Observe(end - at)
	}
	e.journal.Append(f)
}

// writeJournal appends one bin-buffer flush to the sequential journal
// region ("this creates the appropriate sequential writes for the SSD",
// §3.3), wrapping at the region end.
func (e *Engine) writeJournal(at time.Duration, bytes int) (time.Duration, error) {
	pages := int64(e.drive.Pages(bytes))
	if pages == 0 {
		pages = 1
	}
	if e.journalCur+pages > e.journalLimit {
		e.journalCur = e.journalBase
	}
	end, err := e.writeDrive(at, e.journalCur, int(pages))
	if err != nil {
		return end, err
	}
	e.journalCur += pages
	e.rep.JournalBytes += int64(bytes)
	e.rep.JournalWrites++
	return end, nil
}

// finalFlush writes the final partial data page and drains the bin buffers
// at end of stream.
func (e *Engine) finalFlush() {
	at := e.cpu.Pool.Horizon()
	if e.dataCursor%int64(e.drive.PageSize) != 0 {
		// The final partial page of the data log.
		_, _ = e.writeDrive(at, e.dataCursor/int64(e.drive.PageSize), 1)
	}
	if e.index == nil {
		return
	}
	for _, f := range e.index.FlushAll() {
		var start time.Duration
		start, at = e.cpu.Run(at, float64(f.TreeSteps)*e.cpu.Cost.TreeStepCycles)
		e.cpuSpan("flush-drain", start, at)
		e.journalFlush(at, f)
		if e.gbins != nil && !e.gpuLost {
			_, _ = e.gbins.Update(at, e.gpuBin(f.Bin), f.Keys(), f.Values())
		}
	}
}

// finish computes the report's derived figures.
func (e *Engine) finish() {
	r := &e.rep
	elapsed := e.cpu.Pool.Horizon()
	if e.dev != nil {
		elapsed = sim.MaxTime(elapsed, e.dev.Horizon())
	}
	if e.cfg.IncludeDestage {
		elapsed = sim.MaxTime(elapsed, e.drive.Horizon())
	}
	r.Elapsed = elapsed
	r.IOPS = sim.Throughput(float64(r.Chunks), elapsed)
	r.BytesPerSec = sim.Throughput(float64(r.Bytes), elapsed)
	if r.UniqueChunks > 0 {
		r.DedupRatio = float64(r.Chunks) / float64(r.UniqueChunks)
	}
	if r.StoredBytes > 0 {
		r.CompRatio = float64(r.UniqueBytes) / float64(r.StoredBytes)
		r.ReductionRatio = float64(r.Bytes) / float64(r.StoredBytes)
	}
	r.CPUUtil = e.cpu.Utilization(elapsed)
	if e.dev != nil {
		r.GPUUtil = e.dev.Utilization(elapsed)
		r.GPULinkUtil = e.dev.LinkUtilization(elapsed)
		r.GPUKernels = e.dev.Kernels()
	}
	r.SSDUtil = e.drive.Utilization(elapsed)
	r.SSD = e.drive.Stats()
	r.SSDWriteAmp = r.SSD.WriteAmplification()
	r.MaxErase = e.drive.MaxErase()
	if e.index != nil {
		r.IndexEntries = e.index.Len()
		r.IndexMemory = e.index.MemoryBytes()
		r.IndexEvictions = e.index.Evicted()
	}
	r.Latency.JournalFlush = e.histJournal.Summary()
	r.Latency.GPUBatch = e.histGPUBatch.Summary()
	if e.faults != nil {
		r.Faults.LatencySpikes = r.SSD.LatencySpikes
		if e.journal != nil {
			r.Faults.JournalTornRecords = int64(e.journal.TornRecords())
		}
		if e.index != nil {
			r.Faults.IndexEvictions = e.index.FaultEvicted()
		}
	}
}

// VerifyAgainst re-reads the original stream and checks that every chunk is
// reconstructable from what the pipeline stored: duplicates resolve to
// their original's blob, blobs decompress to the exact source bytes.
// Requires Config.Verify.
func (e *Engine) VerifyAgainst(r io.Reader) error {
	if !e.cfg.Verify {
		return fmt.Errorf("core: VerifyAgainst needs Config.Verify")
	}
	ck := e.newChunker(r)
	var out []byte
	for i := 0; ; i++ {
		c, err := ck.Next()
		if err == io.EOF {
			if int64(i) != e.rep.Chunks {
				return fmt.Errorf("core: verify stream has %d chunks, pipeline saw %d", i, e.rep.Chunks)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if i >= len(e.locs) {
			return fmt.Errorf("core: chunk %d has no stored location", i)
		}
		blob, ok := e.blobs[e.locs[i]]
		if !ok {
			return fmt.Errorf("core: chunk %d points at unknown location %d", i, e.locs[i])
		}
		out, err = lz.Decompress(out[:0], blob)
		if err != nil {
			return fmt.Errorf("core: chunk %d: %w", i, err)
		}
		match := string(out) == string(c.Data)
		e.chunkBufs.Put(c.Data)
		if !match {
			return fmt.Errorf("core: chunk %d: stored data does not reconstruct the source", i)
		}
	}
}
