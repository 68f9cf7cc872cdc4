package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"inlinered"
	"inlinered/internal/parallel"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// rangeBlocks is the cluster's placement granularity (its default).
const rangeBlocks = 64

// bootFill is the payload compressibility Cluster.Serve uses when Fill is 0.
const bootFill = 0.5

// bootStorm is the VDI boot storm on the replicated tier: one call is
// Cluster.ReadBatch on the next fixed-size slice of the storm's read
// sequence. The golden image is written and the storms read once in set-up.
type bootStorm struct {
	spec    inlinered.BootStormSpec
	fill    []inlinered.Op
	storm   []int64
	batch   int
	dev     inlinered.BlockDeviceOptions
	serve   inlinered.ClusterServeOptions
	cl      *inlinered.Cluster
	content []int32 // image content id per LBA

	elapsed  []time.Duration // virtual Elapsed per call
	minCalls int
	red      float64

	m *bootMirror
}

// bootWaves is how many boot storms over the same image a run cycles
// through, each with its own client start offsets. One storm's cache
// behaviour swings with its offsets; four average most of that out.
const bootWaves = 4

func newBootStorm(seed int64, tiny bool, minCalls int) (*bootStorm, error) {
	spec := inlinered.BootStormSpec{
		Clients:        128,
		ImageBlocks:    4096,
		ReadsPerClient: 64,
		UniqueBlocks:   4096,
		Jitter:         true,
		Seed:           seed,
	}
	b := &bootStorm{spec: spec, batch: 2048, minCalls: minCalls}
	if tiny {
		b.spec.Clients, b.spec.ImageBlocks, b.spec.UniqueBlocks, b.spec.ReadsPerClient = 32, 256, 256, 32
	}
	var err error
	if b.fill, err = b.spec.Fill(); err != nil {
		return nil, err
	}
	for w := int64(0); w < bootWaves; w++ {
		wave := b.spec
		wave.Seed = seed*bootWaves + w
		lbas, err := wave.Storm()
		if err != nil {
			return nil, err
		}
		b.storm = append(b.storm, lbas...)
	}
	b.content = make([]int32, b.spec.ImageBlocks)
	distinct := map[int32]bool{}
	for _, op := range b.fill {
		b.content[op.LBA] = op.Content
		distinct[op.Content] = true
	}
	b.dev = inlinered.BlockDeviceOptions{
		Blocks:      b.spec.ImageBlocks,
		Nodes:       2,
		Replicas:    2,
		Shards:      1,
		SubBlocks:   4,
		Parallelism: runtime.NumCPU(),
		// A quarter of the image's unique bytes per node: each node serves
		// about half the ranges, whose blocks reference most of the
		// image's contents, so the working set exceeds the cache.
		CacheBytes: int64(len(distinct)) * blockBytes / 4,
	}
	b.serve = inlinered.ClusterServeOptions{ContentSeed: seed}
	b.elapsed = make([]time.Duration, 0, 1024)
	return b, nil
}

func (b *bootStorm) slices() int { return len(b.storm) / b.batch }

// slice returns the reads of call i, cycling through the storm sequence.
func (b *bootStorm) slice(i int) []int64 {
	k := i % b.slices()
	return b.storm[k*b.batch : (k+1)*b.batch]
}

// setUp builds the cluster, installs the image, and warms the cache with
// one pass over the storm sequence.
func (b *bootStorm) setUp() error {
	if b.cl != nil {
		b.cl.Close()
	}
	cl, err := inlinered.NewCluster(b.dev)
	if err != nil {
		return err
	}
	rep, err := cl.Serve(b.fill, b.serve)
	if err != nil {
		return err
	}
	if rep.Errors != 0 {
		return fmt.Errorf("fill: %d op errors", rep.Errors)
	}
	for k := 0; k < b.slices(); k++ {
		rep, err := cl.ReadBatch(b.slice(k), inlinered.ClusterReadBatchOptions{})
		if err != nil {
			return err
		}
		if rep.Errors != 0 {
			return fmt.Errorf("warm pass: %d read errors", rep.Errors)
		}
	}
	st := cl.Stats()
	b.red = float64(st.LogicalBytes) / float64(st.StoredBytes)
	b.cl = cl
	return nil
}

func (b *bootStorm) call(i int) (ops, nbytes, failed int64) {
	lbas := b.slice(i)
	ops, nbytes = int64(len(lbas)), int64(len(lbas))*blockBytes
	rep, err := b.cl.ReadBatch(lbas, inlinered.ClusterReadBatchOptions{})
	if err != nil {
		b.elapsed = append(b.elapsed, 0)
		return ops, nbytes, ops
	}
	b.elapsed = append(b.elapsed, rep.Elapsed)
	if b.m != nil {
		b.m.last = rep
	}
	return ops, nbytes, rep.Errors
}

// verify reads every image block in one Sink-checked batch and compares
// each with the image bytes.
func (b *bootStorm) verify(int) (checked, failed int64, err error) {
	lbas := make([]int64, b.spec.ImageBlocks)
	for i := range lbas {
		lbas[i] = int64(i)
	}
	image := map[int32][]byte{}
	for _, c := range b.content {
		if image[c] == nil {
			image[c] = workload.UniqueChunk(b.serve.ContentSeed, c, blockBytes, bootFill)
		}
	}
	bad := make([]bool, len(lbas))
	sink := func(i int, block []byte, err error) {
		bad[i] = err != nil || !bytes.Equal(block, image[b.content[i]])
	}
	n := int64(len(lbas))
	rep, err := b.cl.ReadBatch(lbas, inlinered.ClusterReadBatchOptions{Sink: sink})
	if err != nil {
		return n, n, err
	}
	for i, x := range bad {
		if x {
			return n, n, fmt.Errorf("lba %d returned wrong bytes", i)
		}
	}
	if rep.Errors != 0 {
		return n, n, fmt.Errorf("verification batch: %d read errors", rep.Errors)
	}
	return n, 0, nil
}

func (b *bootStorm) detCalls() int { return b.minCalls }

func (b *bootStorm) deterministic() (float64, float64) {
	return b.red, simKIOPS(b.batch, b.elapsed[:b.minCalls])
}

// bootMirror is one volume.Volume per node holding the whole image (R =
// N = 2), driven with exactly the reads the cluster routes to that node,
// batch by batch, through the read-batch phases and a parallel.Pool.
type bootMirror struct {
	vols    []*volume.Volume
	batches []*volume.ReadBatch
	route   []int // serving node per placement range
	sub     [][]int64
	pool    *parallel.Pool
	itemNS  atomic.Int64
	run     func(int)
	cur     *volume.ReadBatch
	nodeNS  []time.Duration
	last    *inlinered.ClusterReadBatchReport

	planUS, decodeUS, commitUS, mapUS, dispatchMS, imbal   []float64
	reads, blobs, parts, hits, lookups, admissions, ghosts int64
	decodeNS                                               time.Duration
	diverged                                               int
}

// startTrace builds the mirrors and learns each range's serving node from
// one-read probes on a twin cluster (the real one's cache stays untouched).
func (b *bootStorm) startTrace() error {
	twin, err := inlinered.NewCluster(b.dev)
	if err != nil {
		return err
	}
	defer twin.Close()
	ranges := (b.spec.ImageBlocks + rangeBlocks - 1) / rangeBlocks
	m := &bootMirror{route: make([]int, ranges), pool: parallel.New(runtime.NumCPU())}
	for r := int64(0); r < ranges; r++ {
		rep, err := twin.ReadBatch([]int64{r * rangeBlocks}, inlinered.ClusterReadBatchOptions{})
		if err != nil {
			return err
		}
		for n, pn := range rep.PerNode {
			if pn.Reads == 1 {
				m.route[r] = n
			}
		}
	}
	for n := 0; n < b.dev.Nodes; n++ {
		cfg := volume.DefaultConfig()
		cfg.Blocks = b.dev.Blocks
		cfg.CacheBytes = b.dev.CacheBytes
		cfg.SubBlocks = b.dev.SubBlocks
		v, err := volume.New(cfg)
		if err != nil {
			return err
		}
		var payload []byte
		for _, op := range b.fill {
			payload = workload.UniqueChunkInto(payload, b.serve.ContentSeed, op.Content, blockBytes, bootFill)
			if _, err := v.Write(op.LBA, payload); err != nil {
				return err
			}
		}
		m.vols = append(m.vols, v)
		m.batches = append(m.batches, v.NewReadBatch())
	}
	m.sub = make([][]int64, len(m.vols))
	m.nodeNS = make([]time.Duration, len(m.vols))
	m.run = func(i int) {
		t := time.Now()
		m.cur.RunItem(i)
		m.itemNS.Add(int64(time.Since(t)))
	}
	b.m = m
	// The set-up warm pass, which the timed calls continue from.
	for k := 0; k < b.slices(); k++ {
		b.mirror(b.slice(k), nil, -1, -1, 0)
	}
	return nil
}

func (b *bootStorm) replay(i int, tr *tracer, parent int32, callDur time.Duration) {
	b.mirror(b.slice(i), tr, parent, int64(i), callDur)
}

// mirror runs one call's reads on the mirrors: each node's sub-batch goes
// through NewReadBatch's Plan, a Pool.Map over RunItem, and Commit.
func (b *bootStorm) mirror(lbas []int64, tr *tracer, parent int32, req int64, callDur time.Duration) {
	m := b.m
	for n := range m.sub {
		m.sub[n] = m.sub[n][:0]
		m.nodeNS[n] = 0
	}
	for _, lba := range lbas {
		n := m.route[lba/rangeBlocks]
		m.sub[n] = append(m.sub[n], lba)
	}
	probe := tr != nil
	for n, sub := range m.sub {
		if len(sub) == 0 {
			continue
		}
		rb := m.batches[n]
		nid, nt := tr.begin("volume.ReadBatch", parent, req)
		id, t := tr.begin("volume.ReadBatch.Plan", nid, req)
		if err := rb.Plan(sub); err != nil {
			panic(err) // the cluster accepted the same LBAs
		}
		plan := tr.end(id, t)
		m.cur = rb
		m.itemNS.Store(0)
		id, t = tr.begin("parallel.Pool.Map(RunItem)", nid, req)
		m.pool.Map(rb.Items(), m.run)
		mapd := tr.end(id, t)
		id, t = tr.begin("volume.ReadBatch.Commit", nid, req)
		rb.Commit()
		commit := tr.end(id, t)
		m.nodeNS[n] = tr.end(nid, nt)
		if !probe {
			continue
		}
		dec := time.Duration(m.itemNS.Load())
		m.planUS = append(m.planUS, float64(plan)/1e3)
		m.decodeUS = append(m.decodeUS, float64(dec)/1e3)
		m.mapUS = append(m.mapUS, float64(mapd)/1e3)
		m.commitUS = append(m.commitUS, float64(commit)/1e3)
		m.decodeNS += dec
		m.reads += int64(len(sub))
		m.blobs += int64(rb.DecodedBlobs())
		m.parts += int64(rb.DecodedParts())
		m.hits += rb.CacheHits()
		m.lookups += rb.CacheHits() + rb.CacheMisses()
		m.admissions += rb.CacheAdmissions()
		m.ghosts += rb.CacheGhostHits()
		if pn := m.last.PerNode[n]; pn.CacheHits != rb.CacheHits() || pn.DecodedBlobs != int64(rb.DecodedBlobs()) ||
			pn.DecodedParts != int64(rb.DecodedParts()) || pn.Reads != len(sub) {
			m.diverged++
		}
	}
	if !probe {
		return
	}
	var slowest time.Duration
	for _, d := range m.nodeNS {
		if d > slowest {
			slowest = d
		}
	}
	m.dispatchMS = append(m.dispatchMS, float64(callDur-slowest)/1e6)
	m.imbal = append(m.imbal, imbalance(m.nodeNS))
}

func (b *bootStorm) layers() (map[string]float64, error) {
	m := b.m
	if m.diverged > 0 {
		return nil, fmt.Errorf("mirror counts differ from the cluster's on %d node batches", m.diverged)
	}
	return map[string]float64{
		"volume.readbatch_plan_us_p50":   quantile(m.planUS, 0.5),
		"volume.readbatch_decode_us_p50": quantile(m.decodeUS, 0.5),
		"volume.readbatch_commit_us_p50": quantile(m.commitUS, 0.5),
		"parallel.map_us_p50":            quantile(m.mapUS, 0.5),
		"lz.subdecode_ns_per_MB":         nsPerMB(m.decodeNS, m.blobs*blockBytes),
		"lz.parts_per_blob":              ratio(float64(m.parts), float64(m.blobs)),
		"volume.decoded_blobs_per_read":  ratio(float64(m.blobs), float64(m.reads)),
		"volume.cache_hit_rate":          ratio(float64(m.hits), float64(m.lookups)),
		"volume.cache_admissions":        ratio(float64(m.admissions)*1e3, float64(m.reads)),
		"volume.cache_ghost_hits":        ratio(float64(m.ghosts)*1e3, float64(m.reads)),
		"cluster.dispatch_ms_p50":        quantile(m.dispatchMS, 0.5),
		"cluster.node_imbalance":         quantile(m.imbal, 0.5),
	}, nil
}

func (b *bootStorm) close() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.m != nil {
		b.m.pool.Close()
		for _, rb := range b.m.batches {
			rb.Release()
		}
	}
}
