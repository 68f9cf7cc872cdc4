package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"inlinered/internal/fault"
	"inlinered/internal/parallel"
)

// subConfig is smallConfig with the indexed sub-block write path on, so
// batch reads exercise the parallel per-part decode.
func subConfig() Config {
	cfg := smallConfig()
	cfg.SubBlocks = 4
	return cfg
}

// fillVolume writes n deterministic blocks (with some duplicates to
// exercise dedup-shared fingerprints) and returns the written images.
func fillVolume(t *testing.T, v *Volume, n int) [][]byte {
	t.Helper()
	blocks := make([][]byte, n)
	for i := 0; i < n; i++ {
		data := block(i % (n * 3 / 4)) // last quarter duplicates earlier content
		if _, err := v.Write(int64(i), data); err != nil {
			t.Fatal(err)
		}
		blocks[i] = data
	}
	return blocks
}

// stormLBAs is a deterministic boot-storm-ish request stream: repeated
// sweeps over a hot set plus some unmapped holes.
func stormLBAs(n int64, reads int) []int64 {
	lbas := make([]int64, reads)
	for i := range lbas {
		switch {
		case i%17 == 0:
			lbas[i] = n + int64(i%7) // unmapped hole
		default:
			lbas[i] = int64((i * 13) % int(n))
		}
	}
	return lbas
}

// TestReadBatchMatchesSerial: on a healthy volume, one ReadBatch must be
// indistinguishable from the same reads issued serially — same bytes, same
// per-request latencies, same final clock, stats, and histogram summary.
func TestReadBatchMatchesSerial(t *testing.T) {
	for _, sub := range []int{0, 4} {
		t.Run(fmt.Sprintf("subblocks=%d", sub), func(t *testing.T) {
			cfg := smallConfig()
			cfg.SubBlocks = sub
			vs := newVolume(t, cfg)
			vb := newVolume(t, cfg)
			fillVolume(t, vs, 64)
			fillVolume(t, vb, 64)
			lbas := stormLBAs(64, 200)

			type res struct {
				data []byte
				lat  int64
			}
			serial := make([]res, len(lbas))
			var buf []byte
			for i, lba := range lbas {
				out, lat, err := vs.ReadInto(buf[:0], lba)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = res{data: append([]byte(nil), out...), lat: int64(lat)}
				buf = out
			}

			b, err := vb.ReadBatch(nil, lbas, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != len(lbas) {
				t.Fatalf("batch len %d, want %d", b.Len(), len(lbas))
			}
			for i := range lbas {
				if err := b.Err(i); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(b.Block(i), serial[i].data) {
					t.Fatalf("read %d (lba %d): batch bytes diverge from serial", i, lbas[i])
				}
				if int64(b.Latency(i)) != serial[i].lat {
					t.Fatalf("read %d (lba %d): batch latency %v, serial %v",
						i, lbas[i], b.Latency(i), serial[i].lat)
				}
			}
			if vs.Now() != vb.Now() {
				t.Fatalf("clock diverged: serial %v, batch %v", vs.Now(), vb.Now())
			}
			ss, bs := vs.Stats(), vb.Stats()
			if ss != bs {
				t.Fatalf("stats diverged:\nserial %+v\nbatch  %+v", ss, bs)
			}
		})
	}
}

// TestReadBatchDeterministicAcrossWorkers: the committed batch (bytes,
// latencies, stats) must be bit-identical whether the decode phase runs
// inline or fanned out over any pool size.
func TestReadBatchDeterministicAcrossWorkers(t *testing.T) {
	lbas := stormLBAs(64, 300)
	var ref *Volume
	var refB *ReadBatch
	for _, workers := range []int{0, 1, 2, 4, 8} {
		v := newVolume(t, subConfig())
		fillVolume(t, v, 64)
		var pool *parallel.Pool
		if workers > 0 {
			pool = parallel.New(workers)
		}
		b, err := v.ReadBatch(nil, lbas, pool)
		if pool != nil {
			pool.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refB = v, b
			if b.DecodedParts() <= b.DecodedBlobs() {
				t.Fatalf("sub-block mode produced no parallel fan-out: %d parts over %d blobs",
					b.DecodedParts(), b.DecodedBlobs())
			}
			continue
		}
		for i := range lbas {
			if !bytes.Equal(b.Block(i), refB.Block(i)) {
				t.Fatalf("workers=%d: read %d bytes diverge", workers, i)
			}
			if b.Latency(i) != refB.Latency(i) {
				t.Fatalf("workers=%d: read %d latency diverges", workers, i)
			}
		}
		if v.Now() != ref.Now() {
			t.Fatalf("workers=%d: clock diverged", workers)
		}
		if v.Stats() != ref.Stats() {
			t.Fatalf("workers=%d: stats diverged", workers)
		}
	}
}

// TestReadBatchReuse: recycling one batch across many calls must not leak
// state between batches.
func TestReadBatchReuse(t *testing.T) {
	v := newVolume(t, subConfig())
	blocks := fillVolume(t, v, 32)
	var b *ReadBatch
	var err error
	for round := 0; round < 4; round++ {
		lbas := stormLBAs(32, 50+round*37)
		b, err = v.ReadBatch(b, lbas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, lba := range lbas {
			if err := b.Err(i); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, v.cfg.BlockSize)
			if lba < 32 {
				want = blocks[lba]
			}
			if !bytes.Equal(b.Block(i), want) {
				t.Fatalf("round %d read %d (lba %d): bytes diverge", round, i, lba)
			}
		}
	}
}

// TestReadBatchReuseIndexedThenRaw: recycled item slots must not leak
// deferred overlap copies across batches. Batch 1 decodes an indexed
// container whose sub-parts defer cross-lane matches; batch 2 reuses the
// same ReadBatch to read raw-fallback blobs, whose whole-blob items recycle
// those slots — stale deferred entries would be patched into the freshly
// decoded blocks at commit as silent corruption. In-order decode defers
// nothing, so batch 1 runs its parts in reverse, the schedule that makes
// every part but the first defer.
func TestReadBatchReuseIndexedThenRaw(t *testing.T) {
	v := newVolume(t, subConfig())
	bs := v.cfg.BlockSize

	// lba 0: short repeating pattern — the indexed container's later parts
	// encode matches reaching into earlier lanes' output, which defer.
	indexed := bytes.Repeat([]byte{0x10, 0x33, 0x52, 0x71, 0x9c, 0xbe, 0xd4, 0xf7}, bs/8)
	// lbas 1, 2: incompressible content stores as raw blobs, decoded by the
	// whole-blob fallback items that recycle batch 1's sub-part slots.
	rng := rand.New(rand.NewSource(7))
	raw1, raw2 := make([]byte, bs), make([]byte, bs)
	rng.Read(raw1)
	rng.Read(raw2)
	for lba, data := range map[int64][]byte{0: indexed, 1: raw1, 2: raw2} {
		if _, err := v.Write(lba, data); err != nil {
			t.Fatal(err)
		}
	}

	b := v.NewReadBatch()
	if err := b.Plan([]int64{0}); err != nil {
		t.Fatal(err)
	}
	for i := b.Items() - 1; i >= 0; i-- {
		b.RunItem(i)
	}
	b.Commit()
	if err := b.Err(0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Block(0), indexed) {
		t.Fatal("indexed read returned wrong bytes")
	}
	if b.DecodedParts() < 2 {
		t.Fatalf("indexed blob decoded as %d items; the scenario needs sub-part fan-out", b.DecodedParts())
	}
	deferred := 0
	for i := range b.items {
		deferred += len(b.items[i].deferred)
	}
	if deferred == 0 {
		t.Fatal("indexed decode produced no deferred copies; the scenario needs stale entries to leak")
	}

	b, err := v.ReadBatch(b, []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{raw1, raw2} {
		if err := b.Err(i); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Block(i), want) {
			t.Fatalf("raw read %d corrupted by stale deferred copies from the previous batch", i)
		}
	}
}

// TestReadBatchDriveError: a failed SSD read inside a batch follows the
// serial error-path accounting contract (time committed, read counted) and
// only fails its own request.
func TestReadBatchDriveError(t *testing.T) {
	v := newVolume(t, subConfig())
	fillVolume(t, v, 16)
	// Rate-1 transient read errors exhaust the bounded retries, surfacing
	// as permanent failures.
	armFaults(v, fault.Config{Seed: 11, Rates: fault.Rates{SSDReadTransient: 1}})
	before := v.Stats()
	lbas := []int64{0, 1, 2}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errors() != len(lbas) {
		t.Fatalf("errors = %d, want %d (every uncached read hits the drive)", b.Errors(), len(lbas))
	}
	st := v.Stats()
	if st.Reads != before.Reads+int64(len(lbas)) {
		t.Fatalf("failed batch reads missing from Stats.Reads: %d -> %d", before.Reads, st.Reads)
	}
	if st.ReadLat.Count != before.ReadLat.Count+int64(len(lbas)) {
		t.Fatalf("failed batch reads missing from the histogram")
	}
	// The volume still serves the blocks once the fault clears.
	disarmFaults(v)
	b, err = v.ReadBatch(b, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Errors() != 0 {
		t.Fatalf("reads still failing after faults cleared: %d", b.Errors())
	}
}

// TestReadBatchCorruptBlob: a blob corrupted in the store fails its read at
// commit, never populates the cache with garbage, and leaves the other
// reads in the batch intact.
func TestReadBatchCorruptBlob(t *testing.T) {
	v := newVolume(t, subConfig())
	blocks := fillVolume(t, v, 8)
	// Corrupt lba 2's stored blob in place (flip a token byte, keeping the
	// container header plausible).
	fp := v.lbaMap[2]
	ref := v.chunks[fp]
	blob := v.blobs[ref.loc]
	blob[len(blob)-1] ^= 0xFF
	lbas := []int64{0, 2, 1, 2}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(1) == nil || b.Err(3) == nil {
		t.Fatal("corrupt blob must fail both reads that need it")
	}
	if b.Err(0) != nil || b.Err(2) != nil {
		t.Fatalf("healthy reads failed: %v / %v", b.Err(0), b.Err(2))
	}
	if !bytes.Equal(b.Block(0), blocks[0]) || !bytes.Equal(b.Block(2), blocks[1]) {
		t.Fatal("healthy reads corrupted by a failing neighbour")
	}
	// The reserved cache slot must have been removed: a retry decodes from
	// the store again and fails again (it must NOT hit a garbage entry).
	b, err = v.ReadBatch(b, []int64{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(0) == nil {
		t.Fatal("corrupt blob served from cache after a failed decode")
	}
}

// deferredCopies counts the overlap copies a batch's decode deferred to
// commit.
func deferredCopies(b *ReadBatch) int {
	n := 0
	for i := range b.items {
		n += len(b.items[i].deferred)
	}
	return n
}

// TestReadBatchDecodeOrder: a batch whose parts decode in order (inline,
// or on a one-worker pool) decodes every sub-block on final history and
// defers nothing; the same reads decoded in reverse part order take the
// deferral path and return identical blocks.
func TestReadBatchDecodeOrder(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 0 // every read decodes
	lbas := stormLBAs(64, 200)
	var want *ReadBatch
	for _, workers := range []int{0, 1} {
		v := newVolume(t, cfg)
		fillVolume(t, v, 64)
		var pool *parallel.Pool
		if workers > 0 {
			pool = parallel.New(workers)
		}
		b, err := v.ReadBatch(nil, lbas, pool)
		if pool != nil {
			pool.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.DecodedParts() <= b.DecodedBlobs() {
			t.Fatalf("workers=%d: no sub-block fan-out: %d parts over %d blobs", workers, b.DecodedParts(), b.DecodedBlobs())
		}
		if n := deferredCopies(b); n != 0 {
			t.Fatalf("workers=%d: in-order batch deferred %d copies, want 0", workers, n)
		}
		want = b
	}

	v := newVolume(t, cfg)
	fillVolume(t, v, 64)
	b := v.NewReadBatch()
	if err := b.Plan(lbas); err != nil {
		t.Fatal(err)
	}
	for i := b.Items() - 1; i >= 0; i-- {
		b.RunItem(i)
	}
	if deferredCopies(b) == 0 {
		t.Fatal("reverse-order decode deferred nothing; the deferral path went unexercised")
	}
	b.Commit()
	for i := range lbas {
		if err := b.Err(i); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(b.Block(i), want.Block(i)) {
			t.Fatalf("read %d (lba %d): reverse-order bytes diverge from in-order", i, lbas[i])
		}
	}
}

// cacheOracle writes n distinct blocks and returns each LBA's content.
func cacheOracle(t *testing.T, v *Volume, n int) [][]byte {
	t.Helper()
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = block(1000 + i)
		if _, err := v.Write(int64(i), blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return blocks
}

// checkCacheContents fails if any resident cache entry holds bytes other
// than its fingerprint's content — the entry every later hit would serve.
func checkCacheContents(t *testing.T, v *Volume, blocks [][]byte, when string) {
	t.Helper()
	for lba, want := range blocks {
		if e, ok := v.cache.byFP[v.lbaMap[int64(lba)]]; ok && !bytes.Equal(e.data, want) {
			t.Fatalf("%s: cache entry for lba %d holds another block's bytes", when, lba)
		}
	}
}

// checkBatch fails unless read i of b returned blocks[lbas[i]].
func checkBatch(t *testing.T, b *ReadBatch, lbas []int64, blocks [][]byte, when string) {
	t.Helper()
	for i, lba := range lbas {
		if err := b.Err(i); err != nil {
			t.Fatalf("%s: read %d: %v", when, i, err)
		}
		if !bytes.Equal(b.Block(i), blocks[lba]) {
			t.Fatalf("%s: read %d (lba %d): wrong bytes", when, i, lba)
		}
	}
}

// checkSerialReads reads every block through the serial path (cache hits
// included) and compares against the oracle.
func checkSerialReads(t *testing.T, v *Volume, blocks [][]byte, when string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for lba, want := range blocks {
			got, _, err := v.ReadInto(nil, int64(lba))
			if err != nil {
				t.Fatalf("%s: lba %d: %v", when, lba, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: pass %d lba %d: wrong bytes", when, pass, lba)
			}
		}
	}
}

// TestReadBatchCacheRecycleWithinBatch: with a 2-block cache, a batch of
// distinct misses evicts slots it reserved earlier in the same plan, and
// their buffers are recycled once the batch commits. Every block, every
// later batch and serial read, and every resident cache entry must match
// the written content.
func TestReadBatchCacheRecycleWithinBatch(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 2 * int64(cfg.BlockSize)
	v := newVolume(t, cfg)
	blocks := cacheOracle(t, v, 12)

	lbas := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	b, err := v.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, b, lbas, blocks, "batch 1")
	checkCacheContents(t, v, blocks, "after batch 1")
	if v.cache.evictions == 0 || len(v.cache.spare) == 0 {
		t.Fatalf("scenario needs evicted reservations recycled: %d evictions, %d spare buffers",
			v.cache.evictions, len(v.cache.spare))
	}

	lbas = []int64{8, 9, 6, 7, 8, 0, 1, 9, 10, 11, 10, 3}
	if b, err = v.ReadBatch(b, lbas, nil); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, b, lbas, blocks, "batch 2")
	checkCacheContents(t, v, blocks, "after batch 2")
	checkSerialReads(t, v, blocks, "serial reads")
	checkCacheContents(t, v, blocks, "after serial reads")
}

// TestReadBatchInterleavedBatches: evicted reservations stay parked until
// every open batch on the volume has committed. Batch A plans (reserving
// slots), batch B plans, decodes, and commits, then serial reads insert
// new entries — all while A is still open. A's commit then fills its
// evicted slots; had their buffers been handed to B's or the serial
// reads' entries, those entries would now serve A's bytes.
func TestReadBatchInterleavedBatches(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 2 * int64(cfg.BlockSize)
	v := newVolume(t, cfg)
	blocks := cacheOracle(t, v, 12)

	// Disjoint content per phase: no read may hit an entry another open
	// batch reserved (see ReadBatch).
	lbasA, lbasB := []int64{0, 1, 2, 3}, []int64{4, 5, 6, 7}
	a, b := v.NewReadBatch(), v.NewReadBatch()
	if err := a.Plan(lbasA); err != nil {
		t.Fatal(err)
	}
	if err := b.Plan(lbasB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Items(); i++ {
		b.RunItem(i)
	}
	b.Commit()
	checkBatch(t, b, lbasB, blocks, "batch B")
	for lba := 8; lba < 12; lba++ {
		got, _, err := v.ReadInto(nil, int64(lba))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blocks[lba]) {
			t.Fatalf("serial read of lba %d while A is open: wrong bytes", lba)
		}
	}
	for i := 0; i < a.Items(); i++ {
		a.RunItem(i)
	}
	a.Commit()
	checkBatch(t, a, lbasA, blocks, "batch A")
	checkCacheContents(t, v, blocks, "after both commits")
	checkSerialReads(t, v, blocks, "serial reads after both commits")
	if v.cache.openBatches != 0 {
		t.Fatalf("open batch count %d after every batch committed", v.cache.openBatches)
	}
}

// TestReadBatchAbandonedPlan: planning a batch again (or releasing it)
// without a Commit un-reserves the cache slots the dropped plan would
// have filled, and closes the batch so buffer reuse resumes.
func TestReadBatchAbandonedPlan(t *testing.T) {
	cfg := subConfig()
	cfg.CacheBytes = 4 * int64(cfg.BlockSize)
	v := newVolume(t, cfg)
	blocks := cacheOracle(t, v, 8)

	b := v.NewReadBatch()
	if err := b.Plan([]int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	lbas := []int64{2, 3, 0}
	if _, err := v.ReadBatch(b, lbas, nil); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, b, lbas, blocks, "re-planned batch")
	checkCacheContents(t, v, blocks, "after re-plan")

	if err := b.Plan([]int64{4, 5}); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if v.cache.openBatches != 0 {
		t.Fatalf("open batch count %d after the last batch was released", v.cache.openBatches)
	}
	checkCacheContents(t, v, blocks, "after release")
	checkSerialReads(t, v, blocks, "serial reads")
}
