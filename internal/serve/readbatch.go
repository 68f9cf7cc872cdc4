package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inlinered/internal/parallel"
	"inlinered/internal/workload"
)

// ReadBatchOptions tune a batch read run. Nothing here may affect the
// report — only the op list and the array's configuration do.
type ReadBatchOptions struct {
	// Clients is the number of worker goroutines planning and committing
	// shard batches (0 means one per shard). Wall clock only.
	Clients int
	// Sink, when non-nil, receives every read's result during the commit
	// stage: i is the read's position in the batch, block aliases internal
	// buffers and is valid only for the duration of the call. Sink is
	// called concurrently from multiple goroutines (at most one per shard
	// at a time), so it must be safe for concurrent use — writing to
	// distinct per-i slots is the intended pattern. Sink runs while
	// ReadBatch holds every shard lock, so it must not call back into the
	// Array (Read, Write, Stats, ReadBatch, ...) — a re-entrant call
	// deadlocks.
	Sink func(i int, block []byte, err error)
}

// ReadShardReport is one shard's slice of a batch read.
type ReadShardReport struct {
	Reads           int           `json:"reads"`
	Errors          int64         `json:"errors"`
	DecodedBlobs    int64         `json:"decoded_blobs"`
	DecodedParts    int64         `json:"decoded_parts"`
	CacheHits       int64         `json:"cache_hits"`
	CacheMisses     int64         `json:"cache_misses"`
	CacheAdmissions int64         `json:"cache_admissions"`
	CacheGhostHits  int64         `json:"cache_ghost_hits"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	Now             time.Duration `json:"now_ns"`
}

// ReadBatchReport summarizes one Array.ReadBatch run. Like Report, it
// excludes the client count, the decode parallelism, and any wall-clock
// measurement: runs differing only in scheduling encode to identical
// bytes.
type ReadBatchReport struct {
	Shards       int   `json:"shards"`
	Reads        int   `json:"reads"`
	Errors       int64 `json:"errors"`
	DecodedBlobs int64 `json:"decoded_blobs"` // blob decodes executed (misses)
	DecodedParts int64 `json:"decoded_parts"` // parallel decode items (sub-blocks)

	// Chunk-cache accounting for the batch, summed over shards (all taken
	// during the sequential plan phase, so they are as deterministic as the
	// virtual clock). Hits + misses can undercount Reads: unmapped reads
	// never consult the cache.
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheAdmissions int64 `json:"cache_admissions"`
	CacheGhostHits  int64 `json:"cache_ghost_hits"`

	Elapsed  time.Duration     `json:"elapsed_ns"` // slowest shard's virtual elapsed time
	PerShard []ReadShardReport `json:"per_shard"`
}

// HitRate returns the batch's cache hit fraction over lookups (0 when the
// batch looked nothing up).
func (r *ReadBatchReport) HitRate() float64 {
	lookups := r.CacheHits + r.CacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(lookups)
}

// ReadBatchReportSchema versions the batch-read report envelope. v2 added
// the cache_* counters from the scan-resistant admission policy.
const ReadBatchReportSchema = "inlinered/serve-readbatch-report/v2"

// JSON encodes the report as stable, indented JSON with a schema envelope.
func (r *ReadBatchReport) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	env := struct {
		Schema string           `json:"schema"`
		Report *ReadBatchReport `json:"report"`
	}{ReadBatchReportSchema, r}
	if err := enc.Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// String renders a one-look summary.
func (r *ReadBatchReport) String() string {
	return fmt.Sprintf(
		"shards=%d reads=%d errors=%d decoded blobs=%d parts=%d cache hits=%d/%d (%.1f%%) elapsed=%v",
		r.Shards, r.Reads, r.Errors, r.DecodedBlobs, r.DecodedParts,
		r.CacheHits, r.CacheHits+r.CacheMisses, 100*r.HitRate(),
		r.Elapsed.Round(time.Microsecond))
}

// decodePool returns the array's shared decode pool, creating it on first
// use (nil when Config.Parallelism keeps decoding inline).
func (a *Array) decodePool() *parallel.Pool {
	if a.cfg.Parallelism <= 1 {
		return nil
	}
	a.poolMu.Lock()
	defer a.poolMu.Unlock()
	if a.pool == nil {
		a.pool = parallel.New(a.cfg.Parallelism)
	}
	return a.pool
}

// Close releases the decode worker pool and returns every shard's batch
// state to the package recycling pool. Idempotent, and the array stays
// usable — a later ReadBatch recreates both. Arrays that never call
// ReadBatch (or run with Parallelism <= 1) need not call Close.
func (a *Array) Close() {
	a.poolMu.Lock()
	if a.pool != nil {
		a.pool.Close()
		a.pool = nil
	}
	a.poolMu.Unlock()
	for _, s := range a.shards {
		s.mu.Lock()
		if s.rb != nil {
			s.rb.Release()
			s.rb = nil
		}
		s.mu.Unlock()
	}
}

// ReadBatch executes a batch of reads across the shards through the
// sequential-decision / parallel-decode / sequential-commit split:
//
//  1. Plan: workers claim whole shards (the Serve pattern) and run each
//     shard's sequential decision phase — cache, SSD, and virtual-clock
//     accounting in that shard's op order.
//  2. Decode: ONE pool.Map fans every shard's decode items (one per
//     sub-block of an indexed container) over the array's shared worker
//     pool. Items write disjoint output ranges; nothing here touches a
//     virtual clock.
//  3. Commit: workers claim shards again, patch any deferred overlap copies,
//     fill cache reservations, and hand results to opt.Sink.
//
// Shard queues are an order-preserving partition of lbas, so each shard's
// virtual state is a pure function of its subsequence — the report is
// bit-identical for any Clients, Config.Parallelism, or GOMAXPROCS.
func (a *Array) ReadBatch(lbas []int64, opt ReadBatchOptions) (*ReadBatchReport, error) {
	n := int64(len(a.shards))
	for i, lba := range lbas {
		if lba < 0 || lba >= a.blocks {
			return nil, fmt.Errorf("serve: read %d: lba %d outside [0,%d)", i, lba, a.blocks)
		}
	}

	// Hold every shard for the whole batch (acquired in shard order; Serve
	// and the direct API lock one shard at a time, so ascending acquisition
	// cannot deadlock): the decode stage's pool workers touch shard state,
	// which must stay fenced from concurrent direct calls.
	for _, s := range a.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range a.shards {
			s.mu.Unlock()
		}
	}()

	// Count-then-fill partition into per-shard local-LBA queues, keeping
	// each read's batch position for the commit stage.
	for _, s := range a.shards {
		s.lbas = s.lbas[:0]
		s.pos = s.pos[:0]
	}
	for i, lba := range lbas {
		s := a.shards[lba%n]
		s.lbas = append(s.lbas, lba/n)
		s.pos = append(s.pos, i)
	}

	clients := opt.Clients
	if clients <= 0 {
		clients = len(a.shards)
	}
	// Per-call scratch, reused across batches (safe: all shard locks are
	// held for the duration of the call, and the scratch is touched only
	// here).
	if cap(a.rsc.startNow) < len(a.shards) {
		a.rsc.startNow = make([]time.Duration, len(a.shards))
		a.rsc.prefix = make([]int, len(a.shards)+1)
		a.rsc.per = make([]ReadShardReport, len(a.shards))
	}
	startNow := a.rsc.startNow[:len(a.shards)]

	// Stage 1: sequential decision phase, one worker per claimed shard.
	var next atomic.Int64
	var wg sync.WaitGroup
	var planErr atomic.Value
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(a.shards) {
					return
				}
				s := a.shards[i]
				if s.rb == nil {
					s.rb = s.v.NewReadBatch()
				}
				startNow[i] = s.v.Now()
				if err := s.rb.Plan(s.lbas); err != nil {
					planErr.Store(err)
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := planErr.Load().(error); err != nil {
		return nil, err
	}

	// Stage 2: one global fan-out over the concatenation of every shard's
	// decode items (Pool.Map is not reentrant, so there is exactly one).
	// The item→shard map is materialized once, turning each worker's shard
	// lookup from a binary search over the prefix table into one indexed
	// load — the searches were a measurable slice of per-item dispatch cost
	// with 4 KiB sub-blocks.
	prefix := a.rsc.prefix[:len(a.shards)+1]
	prefix[0] = 0
	for i, s := range a.shards {
		prefix[i+1] = prefix[i] + s.rb.Items()
	}
	total := prefix[len(a.shards)]
	if cap(a.rsc.itemShard) < total {
		a.rsc.itemShard = make([]int32, total)
	}
	itemShard := a.rsc.itemShard[:total]
	for i := range a.shards {
		sub := itemShard[prefix[i]:prefix[i+1]]
		for k := range sub {
			sub[k] = int32(i)
		}
	}
	if a.rsc.run == nil {
		// Built once per array: the closure reads the scratch through a, so
		// it stays valid as the backing arrays are regrown.
		a.rsc.run = func(k int) {
			i := a.rsc.itemShard[k]
			a.shards[i].rb.RunItem(k - a.rsc.prefix[i])
		}
	}
	if pool := a.decodePool(); pool != nil {
		pool.Map(total, a.rsc.run)
	} else {
		for k := 0; k < total; k++ {
			a.rsc.run(k)
		}
	}

	// Stage 3: sequential commit phase, workers claiming shards again.
	per := a.rsc.per[:len(a.shards)]
	for i := range per {
		per[i] = ReadShardReport{}
	}
	next.Store(0)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(a.shards) {
					return
				}
				s := a.shards[i]
				s.rb.Commit()
				pr := &per[i]
				pr.Reads = s.rb.Len()
				pr.Errors = int64(s.rb.Errors())
				pr.DecodedBlobs = int64(s.rb.DecodedBlobs())
				pr.DecodedParts = int64(s.rb.DecodedParts())
				pr.CacheHits = s.rb.CacheHits()
				pr.CacheMisses = s.rb.CacheMisses()
				pr.CacheAdmissions = s.rb.CacheAdmissions()
				pr.CacheGhostHits = s.rb.CacheGhostHits()
				pr.Now = s.v.Now()
				pr.Elapsed = pr.Now - startNow[i]
				if opt.Sink != nil {
					for k := 0; k < s.rb.Len(); k++ {
						opt.Sink(s.pos[k], s.rb.Block(k), s.rb.Err(k))
					}
				}
			}
		}()
	}
	wg.Wait()

	// The report owns its per-shard slice: per is array scratch and the
	// next batch overwrites it.
	own := make([]ReadShardReport, len(per))
	copy(own, per)
	rep := &ReadBatchReport{Shards: len(a.shards), Reads: len(lbas), PerShard: own}
	for i := range own {
		rep.Errors += own[i].Errors
		rep.DecodedBlobs += own[i].DecodedBlobs
		rep.DecodedParts += own[i].DecodedParts
		rep.CacheHits += own[i].CacheHits
		rep.CacheMisses += own[i].CacheMisses
		rep.CacheAdmissions += own[i].CacheAdmissions
		rep.CacheGhostHits += own[i].CacheGhostHits
		if own[i].Elapsed > rep.Elapsed {
			rep.Elapsed = own[i].Elapsed
		}
	}
	return rep, nil
}

// ReadOps filters a workload op list down to its reads' LBAs — the bridge
// from a mixed ClosedLoop/preset stream to the batch read path.
func ReadOps(ops []workload.Op) []int64 {
	lbas := make([]int64, 0, len(ops))
	for _, op := range ops {
		if op.Kind == workload.OpRead {
			lbas = append(lbas, op.LBA)
		}
	}
	return lbas
}
