package core

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"inlinered/internal/dedup"
	"inlinered/internal/parallel"
	"inlinered/internal/workload"
)

// testStream builds a small calibrated stream.
func testStream(t *testing.T, totalBytes int64, dd, cr float64, pattern workload.RefPattern) *workload.Stream {
	t.Helper()
	s, err := workload.New(workload.Spec{
		TotalBytes: totalBytes,
		ChunkSize:  4096,
		DedupRatio: dd,
		CompRatio:  cr,
		Pattern:    pattern,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testConfig returns a small, fast configuration with verification on.
func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Batch = 128
	cfg.GPUCompressBatch = 64
	cfg.Lookahead = 4
	cfg.Verify = true
	return cfg
}

func runPipeline(t *testing.T, plat Platform, cfg Config, s *workload.Stream) (*Engine, *Report) {
	t.Helper()
	eng, err := NewEngine(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Process(s)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ChunkSize = 1 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.GPUCompressBatch = 0 },
		func(c *Config) { c.Lookahead = 0 },
		func(c *Config) { c.Dedup, c.Compress = false, false },
		func(c *Config) { c.Mode = Mode(9) },
		func(c *Config) { c.Index.BufferEntries = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		CPUOnly: "cpu-only", GPUDedup: "gpu-dedup",
		GPUCompress: "gpu-compress", GPUBoth: "gpu-both", Mode(7): "mode(7)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("mode %d: %q", int(m), m.String())
		}
	}
	if !GPUBoth.UsesGPUDedup() || !GPUBoth.UsesGPUCompress() || CPUOnly.UsesGPUDedup() {
		t.Fatal("mode predicates broken")
	}
}

func TestGPUModeNeedsGPU(t *testing.T) {
	for _, m := range []Mode{GPUDedup, GPUCompress, GPUBoth} {
		cfg := testConfig(m)
		if _, err := NewEngine(CPUOnlyPlatform(), cfg); err == nil {
			t.Errorf("mode %s should be rejected without a GPU", m)
		}
	}
}

func TestEngineSingleUse(t *testing.T) {
	s := testStream(t, 1<<20, 1.0, 1.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if _, err := eng.Process(strings.NewReader("x")); err == nil {
		t.Fatal("second Process should fail")
	}
}

func TestPipelineVerifiesAllModes(t *testing.T) {
	for _, m := range Modes {
		s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
		eng, rep := runPipeline(t, PaperPlatform(), testConfig(m), s)
		if rep.Chunks != int64(s.Chunks()) {
			t.Fatalf("%s: processed %d of %d chunks", m, rep.Chunks, s.Chunks())
		}
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestDedupRatioObserved(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if math.Abs(rep.DedupRatio-2.0) > 0.1 {
		t.Fatalf("dedup ratio: got %g, want ~2.0", rep.DedupRatio)
	}
	if rep.DupChunks+rep.UniqueChunks != rep.Chunks {
		t.Fatalf("chunk accounting: %d + %d != %d", rep.DupChunks, rep.UniqueChunks, rep.Chunks)
	}
	hits := rep.DupHitsGPU + rep.DupHitsBuffer + rep.DupHitsTree + rep.DupHitsPending
	if hits != rep.DupChunks {
		t.Fatalf("hit breakdown (%d) != dup chunks (%d)", hits, rep.DupChunks)
	}
}

func TestCompressionRatioObserved(t *testing.T) {
	s := testStream(t, 8<<20, 1.0, 2.0, workload.RefUniform)
	cfg := testConfig(CPUOnly)
	cfg.Dedup = false
	_, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if math.Abs(rep.CompRatio-2.0) > 0.25 {
		t.Fatalf("compression ratio: got %g, want ~2.0", rep.CompRatio)
	}
	if rep.StoredBytes >= rep.Bytes {
		t.Fatal("compression should reduce stored bytes")
	}
}

func TestReductionRatioIntegrated(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	// dedup 2.0 × compression 2.0 ≈ 4× total reduction.
	if rep.ReductionRatio < 3.2 || rep.ReductionRatio > 4.8 {
		t.Fatalf("total reduction: got %g, want ~4", rep.ReductionRatio)
	}
}

func TestNoDedupStoresEverything(t *testing.T) {
	s := testStream(t, 4<<20, 2.0, 1.0, workload.RefUniform)
	cfg := testConfig(CPUOnly)
	cfg.Dedup = false
	cfg.Compress = false
	t.Run("invalid", func(t *testing.T) {
		if _, err := NewEngine(PaperPlatform(), cfg); err == nil {
			t.Fatal("both operations off should be rejected")
		}
	})
	cfg.Compress = true
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.UniqueChunks != rep.Chunks || rep.DupChunks != 0 {
		t.Fatal("without dedup every chunk is unique")
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

func TestRawStoreWithoutCompression(t *testing.T) {
	s := testStream(t, 4<<20, 2.0, 4.0, workload.RefUniform)
	cfg := testConfig(CPUOnly)
	cfg.Compress = false
	eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
	// Raw store: stored bytes ≈ unique bytes (plus tiny headers).
	uniqueBytes := rep.UniqueChunks * 4096
	if rep.StoredBytes < uniqueBytes || rep.StoredBytes > uniqueBytes+uniqueBytes/100 {
		t.Fatalf("raw store: %d stored for %d unique bytes", rep.StoredBytes, uniqueBytes)
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err != nil {
		t.Fatal(err)
	}
}

func TestGPUDedupActuallyScreens(t *testing.T) {
	s := testStream(t, 16<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(GPUDedup), s)
	if rep.GPUIndexBatches == 0 || rep.GPUIndexedChunks == 0 {
		t.Fatal("GPU dedup mode never used the GPU for indexing")
	}
	if rep.GPUKernels == 0 {
		t.Fatal("no kernels launched")
	}
}

func TestGPUCompressUsesDevice(t *testing.T) {
	s := testStream(t, 8<<20, 1.0, 2.0, workload.RefUniform)
	cfg := testConfig(GPUCompress)
	cfg.Dedup = false
	_, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.GPUKernels == 0 || rep.GPUUtil == 0 {
		t.Fatal("GPU compress mode never used the GPU")
	}
	if rep.CompRatio < 1.5 {
		t.Fatalf("sub-block compression ratio too low: %g", rep.CompRatio)
	}
}

func TestThroughputConsistency(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	wantIOPS := float64(rep.Chunks) / rep.Elapsed.Seconds()
	if math.Abs(rep.IOPS-wantIOPS)/wantIOPS > 1e-9 {
		t.Fatalf("IOPS inconsistent: %g vs %g", rep.IOPS, wantIOPS)
	}
	if rep.CPUUtil <= 0 || rep.CPUUtil > 1.0000001 {
		t.Fatalf("CPU utilization out of range: %g", rep.CPUUtil)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Report {
		s := testStream(t, 8<<20, 2.0, 2.0, workload.RefRecent)
		_, rep := runPipeline(t, PaperPlatform(), testConfig(GPUBoth), s)
		return rep
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.UniqueChunks != b.UniqueChunks || a.StoredBytes != b.StoredBytes {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSSDAccounting(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if rep.SSD.HostWritePages == 0 {
		t.Fatal("destage wrote nothing")
	}
	// Stored bytes at comp ratio 2 ≈ half the unique pages plus journal.
	minPages := rep.StoredBytes / 4096
	if rep.SSD.HostWritePages < minPages {
		t.Fatalf("host pages %d below stored bytes %d", rep.SSD.HostWritePages, rep.StoredBytes)
	}
	if rep.JournalBytes == 0 {
		t.Fatal("bin buffer flushes should journal to the SSD")
	}
}

func TestIncludeDestageExtendsElapsed(t *testing.T) {
	mk := func(include bool) *Report {
		s := testStream(t, 4<<20, 1.0, 1.0, workload.RefUniform)
		cfg := testConfig(CPUOnly)
		cfg.Dedup = false
		cfg.IncludeDestage = include
		_, rep := runPipeline(t, PaperPlatform(), cfg, s)
		return rep
	}
	with, without := mk(true), mk(false)
	if with.Elapsed < without.Elapsed {
		t.Fatalf("destage-inclusive elapsed (%v) < exclusive (%v)", with.Elapsed, without.Elapsed)
	}
}

func TestVerifyNeedsFlag(t *testing.T) {
	s := testStream(t, 1<<20, 1.0, 1.0, workload.RefUniform)
	cfg := testConfig(CPUOnly)
	cfg.Verify = false
	eng, _ := runPipeline(t, PaperPlatform(), cfg, s)
	if err := eng.VerifyAgainst(bytes.NewReader(nil)); err == nil {
		t.Fatal("VerifyAgainst without Verify should fail")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	s := testStream(t, 2<<20, 2.0, 2.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	// Corrupt one stored blob.
	for loc := range eng.blobs {
		b := eng.blobs[loc]
		if len(b) > 4 {
			b[len(b)-1] ^= 0xFF
			break
		}
	}
	s.Reset()
	if err := eng.VerifyAgainst(s); err == nil {
		t.Fatal("verification should detect corruption")
	}
}

func TestVerifyCatchesWrongStream(t *testing.T) {
	s := testStream(t, 2<<20, 1.0, 1.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	other := testStream(t, 2<<20, 1.0, 1.0, workload.RefUniform)
	otherData, _ := io.ReadAll(other)
	otherData[0] ^= 1
	if err := eng.VerifyAgainst(bytes.NewReader(otherData)); err == nil {
		t.Fatal("verification should reject a different stream")
	}
}

func TestDriveFullError(t *testing.T) {
	plat := PaperPlatform()
	plat.SSD.BlocksPerChannel = 4
	plat.SSD.PagesPerBlock = 8
	plat.SSD.Channels = 2
	cfg := testConfig(CPUOnly)
	cfg.Dedup = false
	cfg.Compress = false
	cfg.Compress = true // keep one op on; incompressible data defeats it
	s := testStream(t, 4<<20, 1.0, 1.0, workload.RefUniform)
	eng, err := NewEngine(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Process(s); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("tiny drive should fill up, got %v", err)
	}
}

func TestPendingDuplicatesResolved(t *testing.T) {
	// A stream where neighbours duplicate within the GPU batching window:
	// the inflight table must catch them and verification must still pass.
	chunkA := bytes.Repeat([]byte{0xAA}, 4096)
	chunkB := bytes.Repeat([]byte{0xBB}, 4096)
	var stream []byte
	for i := 0; i < 64; i++ {
		stream = append(stream, chunkA...)
		stream = append(stream, chunkB...)
	}
	cfg := testConfig(GPUCompress)
	cfg.GPUCompressBatch = 32 // force several in-flight windows
	eng, err := NewEngine(PaperPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Process(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if rep.UniqueChunks != 2 {
		t.Fatalf("unique chunks: got %d, want 2", rep.UniqueChunks)
	}
	if rep.DupHitsPending == 0 {
		t.Fatal("expected in-flight duplicate hits")
	}
	if err := eng.VerifyAgainst(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	s := testStream(t, 2<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(GPUCompress), s)
	str := rep.String()
	for _, want := range []string{"gpu-compress", "IOPS", "dedup", "ssd"} {
		if !strings.Contains(str, want) {
			t.Errorf("report string missing %q:\n%s", want, str)
		}
	}
	if rep.SpeedupOver(nil) != 0 || rep.SpeedupOver(rep) != 1 {
		t.Fatal("SpeedupOver broken")
	}
}

func TestCalibratePicksAMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Batch = 128
	cfg.GPUCompressBatch = 64
	res, err := Calibrate(PaperPlatform(), cfg, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("expected all 4 modes calibrated, got %d", len(res.Reports))
	}
	best := res.Reports[res.Best].IOPS
	for m, r := range res.Reports {
		if r.IOPS > best {
			t.Fatalf("calibration picked %s (%.0f) but %s is faster (%.0f)", res.Best, best, m, r.IOPS)
		}
	}
}

func TestCalibrateCPUOnlyPlatform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Batch = 128
	res, err := Calibrate(CPUOnlyPlatform(), cfg, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != CPUOnly || len(res.Reports) != 1 {
		t.Fatalf("GPU-less platform must pick cpu-only: %+v", res.Best)
	}
}

func TestStageBreakdown(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	b := rep.Stages
	if b.Total() <= 0 {
		t.Fatal("no stage time recorded")
	}
	// Hashing and compression are the heavyweights in a CPU-only
	// integrated run; both paper bottlenecks must be visible.
	if b.Hashing <= 0 || b.Compression <= 0 || b.Indexing <= 0 || b.Insert <= 0 {
		t.Fatalf("missing stage time: %+v", b)
	}
	if b.PostProcess != 0 || b.GPUMerge != 0 {
		t.Fatalf("CPU-only run should have no GPU stages: %+v", b)
	}
	// The breakdown total must equal the pool's busy time (all CPU jobs
	// are attributed to exactly one stage).
	busy := rep.CPUUtil * rep.Elapsed.Seconds() * 8
	if math.Abs(b.Total()-busy)/busy > 0.02 {
		t.Fatalf("stage breakdown (%.4fs) != CPU busy time (%.4fs)", b.Total(), busy)
	}
}

func TestStageBreakdownGPUCompress(t *testing.T) {
	s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
	_, rep := runPipeline(t, PaperPlatform(), testConfig(GPUCompress), s)
	if rep.Stages.PostProcess <= 0 {
		t.Fatal("GPU compression must show CPU post-processing time")
	}
	if rep.Stages.Compression != 0 {
		t.Fatal("GPU compression mode should not charge CPU compression")
	}
}

func TestAccessors(t *testing.T) {
	s := testStream(t, 1<<20, 2.0, 1.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if eng.Drive() == nil || eng.Index() == nil {
		t.Fatal("accessors should expose the run's resources")
	}
	if eng.Index().Len() == 0 {
		t.Fatal("index should hold the uniques")
	}
	if eng.Drive().Stats().HostWritePages == 0 {
		t.Fatal("drive should have absorbed the destage")
	}
}

func TestWeakGPUPlatformShape(t *testing.T) {
	p := WeakGPUPlatform()
	if !p.HasGPU {
		t.Fatal("weak GPU platform still has a GPU")
	}
	strong := PaperPlatform()
	if p.GPU.ComputeUnits >= strong.GPU.ComputeUnits || p.GPU.LaunchOverhead <= strong.GPU.LaunchOverhead {
		t.Fatal("weak GPU should be weaker than the paper GPU")
	}
}

func TestParallelMapCoversAllIndices(t *testing.T) {
	pool := parallel.New(4)
	defer pool.Close()
	for _, n := range []int{0, 1, 7, 100} {
		hit := make([]bool, n)
		pool.Map(n, func(i int) { hit[i] = true })
		for i, h := range hit {
			if !h {
				t.Fatalf("n=%d: index %d not visited", n, i)
			}
		}
	}
}

func TestEntropyBypass(t *testing.T) {
	// A fully incompressible stream: with the bypass, every unique chunk
	// skips the encoder and the run is much faster in virtual time.
	mk := func(skip bool) *Report {
		s := testStream(t, 8<<20, 1.0, 1.0, workload.RefUniform)
		cfg := testConfig(CPUOnly)
		cfg.Dedup = false
		cfg.SkipIncompressible = skip
		eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with, without := mk(true), mk(false)
	if with.SkippedIncompressible == 0 {
		t.Fatal("bypass never triggered on random data")
	}
	if without.SkippedIncompressible != 0 {
		t.Fatal("bypass triggered while disabled")
	}
	if with.IOPS <= without.IOPS*1.5 {
		t.Fatalf("bypass should be much faster on incompressible data: %.0f vs %.0f", with.IOPS, without.IOPS)
	}
}

func TestEntropyBypassLeavesCompressibleAlone(t *testing.T) {
	s := testStream(t, 8<<20, 1.0, 3.0, workload.RefUniform)
	cfg := testConfig(CPUOnly)
	cfg.Dedup = false
	cfg.SkipIncompressible = true
	_, rep := runPipeline(t, PaperPlatform(), cfg, s)
	if rep.SkippedIncompressible != 0 {
		t.Fatalf("compressible chunks skipped: %d", rep.SkippedIncompressible)
	}
	if rep.CompRatio < 2.5 {
		t.Fatalf("compression should still happen: ratio %g", rep.CompRatio)
	}
}

func TestJournalRecovery(t *testing.T) {
	s := testStream(t, 16<<20, 2.0, 2.0, workload.RefUniform)
	eng, rep := runPipeline(t, PaperPlatform(), testConfig(CPUOnly), s)
	if len(eng.JournalImage()) == 0 {
		t.Fatal("dedup run should journal its flushes")
	}
	rec, rcv, err := eng.RecoverIndex()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Truncated {
		t.Fatalf("clean shutdown journal reported truncation: %+v", rcv)
	}
	// Clean shutdown (finalFlush journals everything): the recovered index
	// holds every unique chunk's entry.
	if rec.Len() != eng.Index().Len() {
		t.Fatalf("recovered %d entries, live %d", rec.Len(), eng.Index().Len())
	}
	if rec.Len() != rep.UniqueChunks {
		t.Fatalf("recovered %d, uniques %d", rec.Len(), rep.UniqueChunks)
	}
	// And resolves a re-run of the stream entirely as duplicates.
	s.Reset()
	ck := 0
	for i := 0; i < 200; i++ {
		if p := rec.Lookup(workloadFP(s, i)); p.Found {
			ck++
		}
	}
	if ck != 200 {
		t.Fatalf("recovered index resolved %d/200 chunks", ck)
	}
}

func workloadFP(s *workload.Stream, i int) dedup.Fingerprint {
	return dedup.Sum(s.Chunk(i))
}

func TestRecoverIndexWithoutDedup(t *testing.T) {
	cfg := testConfig(CPUOnly)
	cfg.Dedup = false
	s := testStream(t, 1<<20, 1.0, 1.0, workload.RefUniform)
	eng, _ := runPipeline(t, PaperPlatform(), cfg, s)
	if _, _, err := eng.RecoverIndex(); err == nil {
		t.Fatal("recovery without dedup should error")
	}
	if eng.JournalImage() != nil {
		t.Fatal("no journal expected without dedup")
	}
}

// Property: for arbitrary small workload specs and modes, the pipeline
// conserves chunks (unique + dup = total), reports consistent ratios, and
// reconstructs the stream bit-for-bit.
func TestPipelineConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	seeds := []int64{1, 2, 3}
	dds := []float64{1.0, 1.7, 3.0}
	crs := []float64{1.0, 2.5}
	modes := []Mode{CPUOnly, GPUCompress, GPUBoth}
	for i, seed := range seeds {
		dd, cr, m := dds[i%len(dds)], crs[i%len(crs)], modes[i%len(modes)]
		s, err := workload.New(workload.Spec{
			TotalBytes: 6 << 20, ChunkSize: 4096,
			DedupRatio: dd, CompRatio: cr, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(m)
		eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
		if rep.UniqueChunks+rep.DupChunks != rep.Chunks {
			t.Fatalf("seed %d: chunk conservation broken", seed)
		}
		if rep.Chunks != int64(s.Chunks()) {
			t.Fatalf("seed %d: processed %d of %d", seed, rep.Chunks, s.Chunks())
		}
		if rep.StoredBytes <= 0 || rep.StoredBytes > rep.Bytes+rep.Bytes/50 {
			t.Fatalf("seed %d: stored bytes %d out of range", seed, rep.StoredBytes)
		}
		if rep.Elapsed <= 0 || rep.IOPS <= 0 {
			t.Fatalf("seed %d: no progress", seed)
		}
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatalf("seed %d (dd=%g cr=%g mode=%s): %v", seed, dd, cr, m, err)
		}
	}
}

func TestCDCWithGPUModes(t *testing.T) {
	// Variable-size CDC chunks through every GPU path: screening batches,
	// the sub-block compression kernel, and post-processing must all
	// handle non-uniform chunk sizes, and the data must reconstruct.
	for _, m := range []Mode{GPUCompress, GPUBoth} {
		s := testStream(t, 8<<20, 2.0, 2.0, workload.RefUniform)
		cfg := testConfig(m)
		cfg.Chunker = CDCChunking
		eng, rep := runPipeline(t, PaperPlatform(), cfg, s)
		if rep.UniqueBytes == rep.UniqueChunks*int64(cfg.ChunkSize) {
			t.Fatalf("%s: CDC should produce variable chunk sizes", m)
		}
		s.Reset()
		if err := eng.VerifyAgainst(s); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

// Building an engine must not pay for the simulated drive's capacity: the
// SSD model allocates page state only for blocks a run writes, so
// construction stays O(channels) allocations and under 1 MiB, against the
// ~8k allocations and ~17 MB a fully materialised drive would cost.
func TestNewEngineConstructionCost(t *testing.T) {
	build := func() {
		e, err := NewEngine(PaperPlatform(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.pool.Close()
	}
	const runs = 10
	allocs := testing.AllocsPerRun(runs, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	allocated := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewEngine(PaperPlatform(), DefaultConfig()): %.0f allocs, %d bytes", allocs, allocated)
	if allocs > 200 {
		t.Errorf("NewEngine allocs = %.0f, want <= 200", allocs)
	}
	if allocated >= 1<<20 {
		t.Errorf("NewEngine allocated %d bytes, want < 1 MiB", allocated)
	}
}
