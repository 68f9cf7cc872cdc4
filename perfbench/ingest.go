package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"inlinered"
	"inlinered/internal/chunk"
	"inlinered/internal/core"
	"inlinered/internal/dedup"
	"inlinered/internal/lz"
	"inlinered/internal/parallel"
	"inlinered/internal/workload"
)

// ingestStreams is how many independently seeded streams a run cycles
// through: call i ingests stream i % ingestStreams. One 4 MiB stream's
// dedup and virtual speed swing by 10-20% with its seed; averaging over
// eight keeps a run's figures close to the population's.
const ingestStreams = 8

// ingest is the paper's write pipeline: one call is inlinered.Run (engine
// construction plus Process) over one of the pre-built shifted-duplicate
// streams.
type ingest struct {
	streams [][]byte
	plat    inlinered.Platform
	opts    inlinered.Options
	// Report values, not pointers: the returned *Report points into its
	// engine, so keeping it would keep every engine's SSD model alive.
	reports []inlinered.Report
	failed  []bool

	// Serial layer replay of the same streams (traced runs only).
	cfg    core.Config
	gear   *chunk.Gear
	hasher *dedup.BatchHasher
	pool   *parallel.Pool
	chunks [][]byte
	unique [][]byte
	fps    []dedup.Fingerprint
	blob   []byte
	acc    ingestLayers
}

type ingestLayers struct {
	chunkNS, hashNS, indexNS, compNS, runNS time.Duration
	bytes, chunks, steps, hits, wantHits    int64
	uniqueBytes, storedBytes, journalBytes  int64
}

func newIngest(seed int64, tiny bool) (*ingest, error) {
	// Files re-emitted with random inserted prefixes: content-defined
	// chunking resynchronizes after each prefix, so the index finds most
	// repeats (about 3.3x dedup at 4 repeats).
	spec := workload.ShiftSpec{Files: 8, FileSize: 128 << 10, Repeats: 4, MaxShift: 4096, Fill: 0.55}
	if tiny {
		spec.Files, spec.FileSize = 2, 32<<10
	}
	g := &ingest{
		plat: inlinered.PaperPlatform(),
		opts: inlinered.Options{
			Mode:           inlinered.GPUCompress, // calibration's pick on PaperPlatform
			ContentDefined: true,
			Parallelism:    runtime.NumCPU(),
		},
		reports: make([]inlinered.Report, 0, 1024),
		failed:  make([]bool, 0, 1024),
	}
	for k := int64(0); k < ingestStreams; k++ {
		spec.Seed = seed*ingestStreams + k
		r, n, err := workload.NewShifted(spec)
		if err != nil {
			return nil, err
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		g.streams = append(g.streams, data)
	}
	return g, nil
}

func (g *ingest) stream(i int) []byte { return g.streams[i%len(g.streams)] }

func streamOps(data []byte) int64 { return (int64(len(data)) + blockBytes - 1) / blockBytes }

// setUp is one warm pass over the streams: the engine is built per call,
// so set-up has nothing else to build.
func (g *ingest) setUp() error {
	for _, data := range g.streams {
		if _, err := inlinered.Run(g.plat, g.opts, bytes.NewReader(data)); err != nil {
			return err
		}
	}
	return nil
}

func (g *ingest) call(i int) (ops, nbytes, failed int64) {
	data := g.stream(i)
	ops, nbytes = streamOps(data), int64(len(data))
	rep, err := inlinered.Run(g.plat, g.opts, bytes.NewReader(data))
	if err != nil {
		g.reports = append(g.reports, inlinered.Report{})
		g.failed = append(g.failed, true)
		return ops, nbytes, ops
	}
	g.reports = append(g.reports, *rep)
	g.failed = append(g.failed, false)
	return ops, nbytes, 0
}

// verify runs one Options.Verify pass per stream, checks every stored
// chunk with Engine.Verify, and requires every timed call's report JSON to
// equal its stream's verified report.
func (g *ingest) verify(calls int) (checked, failed int64, err error) {
	opts := g.opts
	opts.Verify = true
	want := make([][]byte, len(g.streams))
	for k, data := range g.streams {
		ops := streamOps(data)
		checked += ops
		eng, err := inlinered.NewEngine(g.plat, opts)
		if err != nil {
			return checked, ops, err
		}
		rep, err := eng.Process(bytes.NewReader(data))
		if err != nil {
			return checked, ops, err
		}
		if err := eng.Verify(bytes.NewReader(data)); err != nil {
			return checked, ops, fmt.Errorf("stream %d: %w", k, err)
		}
		if want[k], err = rep.JSON(); err != nil {
			return checked, ops, err
		}
	}
	for i := range g.reports[:calls] {
		if g.failed[i] {
			continue // already counted as failed by the call
		}
		got, jerr := g.reports[i].JSON()
		if jerr != nil || !bytes.Equal(got, want[i%len(want)]) {
			failed += streamOps(g.stream(i))
			if err == nil {
				err = fmt.Errorf("call %d report differs from its stream's verified pass", i)
			}
		}
	}
	return checked, failed, err
}

func (g *ingest) detCalls() int { return len(g.streams) }

// deterministic aggregates the first pass over the streams: stream bytes
// over stored bytes, and 4 KiB ops over virtual seconds.
func (g *ingest) deterministic() (float64, float64) {
	var in, stored float64
	var virt time.Duration
	for _, rep := range g.reports[:len(g.streams)] {
		in += float64(rep.Bytes)
		stored += float64(rep.Bytes) / rep.ReductionRatio
		virt += rep.Elapsed
	}
	return in / stored, in / blockBytes / virt.Seconds() / 1e3
}

func (g *ingest) startTrace() error {
	g.cfg = core.DefaultConfig()
	g.gear = chunk.NewGear(nil, g.cfg.Gear)
	g.pool = parallel.New(1) // serial replay: Map runs inline
	g.hasher = dedup.NewBatchHasher(g.pool)
	return nil
}

// replay pushes the stream through each write-path layer serially, in the
// order the engine applies them: Gear chunking, batch fingerprinting, the
// bin index, and sub-block compression plus post-processing of uniques.
func (g *ingest) replay(i int, tr *tracer, parent int32, callDur time.Duration) {
	if tr == nil {
		return // stateless across calls: nothing to catch up
	}
	req := int64(i)
	data := g.stream(i)
	a := &g.acc
	a.runNS += callDur
	a.bytes += int64(len(data))
	a.wantHits += g.reports[i].DupChunks
	a.journalBytes += g.reports[i].JournalBytes

	id, t := tr.begin("chunk.Gear.Next", parent, req)
	g.gear.Reset(bytes.NewReader(data))
	g.chunks = g.chunks[:0]
	for {
		c, err := g.gear.Next()
		if err != nil {
			break
		}
		g.chunks = append(g.chunks, c.Data)
	}
	a.chunkNS += tr.end(id, t)
	a.chunks += int64(len(g.chunks))

	id, t = tr.begin("dedup.BatchHasher.SumInto", parent, req)
	g.fps = g.hasher.SumInto(g.fps, g.chunks)
	a.hashNS += tr.end(id, t)

	id, t = tr.begin("dedup.BinIndex.Lookup+Insert", parent, req)
	idx, err := dedup.NewBinIndex(g.cfg.Index)
	if err != nil {
		panic(err) // the engine validated the same config
	}
	g.unique = g.unique[:0]
	var loc int64
	for k, fp := range g.fps {
		p := idx.Lookup(fp)
		a.steps += int64(p.BufferScanned + p.TreeSteps)
		if p.Found {
			a.hits++
			continue
		}
		r := idx.Insert(fp, dedup.Entry{Loc: loc, Size: uint32(len(g.chunks[k]))})
		a.steps += int64(r.BufferScanned)
		if r.Flush != nil {
			a.steps += int64(r.Flush.TreeSteps)
		}
		loc += int64(len(g.chunks[k]))
		g.unique = append(g.unique, g.chunks[k])
	}
	a.indexNS += tr.end(id, t)

	id, t = tr.begin("lz.CompressSubBlocks+PostProcessOrRaw", parent, req)
	for _, c := range g.unique {
		res := lz.CompressSubBlocks(c, g.cfg.Sub)
		var err error
		g.blob, _, err = lz.PostProcessOrRaw(g.blob[:0], c, res)
		if err != nil {
			panic(err) // res came from c
		}
		a.uniqueBytes += int64(len(c))
		a.storedBytes += int64(len(g.blob))
	}
	a.compNS += tr.end(id, t)
}

func (g *ingest) layers() (map[string]float64, error) {
	a := &g.acc
	if a.hits != a.wantHits {
		return nil, fmt.Errorf("serial index replay found %d duplicates, the engine %d", a.hits, a.wantHits)
	}
	layerNS := a.chunkNS + a.hashNS + a.indexNS + a.compNS
	return map[string]float64{
		"chunk.ns_per_MB":            nsPerMB(a.chunkNS, a.bytes),
		"dedup.hash_ns_per_MB":       nsPerMB(a.hashNS, a.bytes),
		"dedup.index_ns_per_op":      ratio(float64(a.indexNS), float64(a.chunks)),
		"dedup.index_steps_per_op":   ratio(float64(a.steps), float64(a.chunks)),
		"dedup.hit_ratio":            ratio(float64(a.hits), float64(a.chunks)),
		"lz.compress_ns_per_MB":      nsPerMB(a.compNS, a.uniqueBytes),
		"lz.compress_ratio":          ratio(float64(a.uniqueBytes), float64(a.storedBytes)),
		"dedup.journal_bytes_per_MB": ratio(float64(a.journalBytes), float64(a.bytes)/(1<<20)),
		"core.useful_share":          ratio(float64(layerNS), float64(a.runNS)*float64(g.opts.Parallelism)),
	}, nil
}

func (g *ingest) close() {
	if g.pool != nil {
		g.pool.Close()
	}
}
