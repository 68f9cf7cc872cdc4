package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"inlinered"
	"inlinered/internal/dedup"
	"inlinered/internal/lz"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// oltpFill is the payload compressibility Serve uses when Fill is 0.
const oltpFill = 0.5

// oltp is a mixed primary-storage load on the sharded array: one call is
// Array.Serve on the next fixed-size slice of a 60/35/5 write/read/trim
// op list, after the list's fill prefix ran in set-up.
type oltp struct {
	blocks int64
	shards int
	batch  int
	fill   []inlinered.Op // fill prefix: one write per LBA
	ops    []inlinered.Op // post-fill ops, served batch by batch (cycled)
	opts   inlinered.ServeOptions
	dev    inlinered.BlockDeviceOptions
	arr    *inlinered.Array

	// Per-call report fields kept for the untimed checks.
	cleaned  []int
	elapsed  []time.Duration
	redAtMin float64 // reduction ratio after the first minCalls calls
	minCalls int

	m *oltpMirror
}

func newOLTP(seed int64, tiny bool, minCalls int) (*oltp, error) {
	// The cleaner's virtual cost swings from seed to seed over short
	// stretches; 300 calls hold sim_kiops to about 3% across seeds.
	o := &oltp{blocks: 4096, shards: 2, batch: 512, minCalls: max(minCalls, 300)}
	post := 1 << 18
	if tiny {
		o.blocks, post, o.minCalls = 512, 4096, minCalls
	}
	all, err := inlinered.NewOps(inlinered.OpsSpec{
		Ops:        post,
		Blocks:     o.blocks,
		WriteFrac:  0.60,
		TrimFrac:   0.05,
		DedupRatio: 2,
		Hotspot:    0.5,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	o.fill, o.ops = all[:o.blocks], all[o.blocks:]
	// Serve counts CleanEvery within one call's per-shard queue, so the
	// cadence must fire inside a batch/shards-op queue: about twice here.
	o.opts = inlinered.ServeOptions{Clients: runtime.NumCPU(), ContentSeed: seed, CleanEvery: o.batch / o.shards / 2}
	// 16 MiB of default cache per shard holds each shard's whole 8 MiB
	// logical space, so the working set fits in the cache.
	o.dev = inlinered.BlockDeviceOptions{Blocks: o.blocks, Shards: o.shards}
	o.cleaned, o.elapsed = make([]int, 0, 1024), make([]time.Duration, 0, 1024)
	return o, nil
}

func (o *oltp) setUp() error {
	if o.arr != nil {
		o.arr.Close()
	}
	arr, err := inlinered.NewArray(o.dev)
	if err != nil {
		return err
	}
	rep, err := arr.Serve(o.fill, o.opts)
	if err != nil {
		return err
	}
	if rep.Errors != 0 {
		return fmt.Errorf("fill: %d op errors", rep.Errors)
	}
	o.arr = arr
	return nil
}

// slice returns the ops of call i; the list is cycled when a run outlasts it.
func (o *oltp) slice(i int) []inlinered.Op {
	nb := len(o.ops) / o.batch
	k := i % nb
	return o.ops[k*o.batch : (k+1)*o.batch]
}

func (o *oltp) call(i int) (ops, nbytes, failed int64) {
	batch := o.slice(i)
	ops, nbytes = int64(len(batch)), int64(len(batch))*blockBytes
	rep, err := o.arr.Serve(batch, o.opts)
	if err != nil {
		o.cleaned = append(o.cleaned, 0)
		o.elapsed = append(o.elapsed, 0)
		return ops, nbytes, ops
	}
	o.cleaned = append(o.cleaned, rep.Cleaned)
	o.elapsed = append(o.elapsed, rep.Elapsed)
	if i == o.minCalls-1 {
		o.redAtMin = rep.Merged.ReductionRatio()
	}
	return ops, nbytes, rep.Errors
}

// verify reads every LBA back with Array.Read and compares it with an
// oracle built from the op list, and requires the cleaner to have run.
func (o *oltp) verify(calls int) (checked, failed int64, err error) {
	content := make([]int32, o.blocks)
	for i := range content {
		content[i] = -1 // unmapped
	}
	apply := func(ops []inlinered.Op) {
		for _, op := range ops {
			switch op.Kind {
			case inlinered.OpWrite:
				content[op.LBA] = op.Content
			case inlinered.OpTrim:
				content[op.LBA] = -1
			}
		}
	}
	apply(o.fill)
	for i := 0; i < calls; i++ {
		apply(o.slice(i))
	}
	var want []byte
	zero := make([]byte, blockBytes)
	var firstErr error
	for lba := int64(0); lba < o.blocks; lba++ {
		got, _, err := o.arr.Read(lba)
		exp := zero
		if c := content[lba]; c >= 0 {
			want = workload.UniqueChunkInto(want, o.opts.ContentSeed, c, blockBytes, oltpFill)
			exp = want
		}
		if err != nil || !bytes.Equal(got, exp) {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("lba %d reads back wrong bytes (err %v)", lba, err)
			}
		}
	}
	cleaned := 0
	for _, c := range o.cleaned[:calls] {
		cleaned += c
	}
	if cleaned == 0 && firstErr == nil {
		firstErr = fmt.Errorf("the cleaner reclaimed no segment in %d calls", calls)
	}
	return o.blocks, failed, firstErr
}

func (o *oltp) detCalls() int { return o.minCalls }

func (o *oltp) deterministic() (float64, float64) {
	return o.redAtMin, simKIOPS(o.batch, o.elapsed[:o.minCalls])
}

// oltpMirror is one volume.Volume per shard, driven with exactly the ops
// Serve routes to that shard (lba % shards, local LBA lba / shards) and
// the same cleaner cadence, so its state tracks the array's.
type oltpMirror struct {
	vols    []*volume.Volume
	queues  [][]inlinered.Op
	payload []byte
	readBuf []byte
	blob    []byte
	dec     []byte

	writeUS, writeSelfUS, readUS, trimUS, cleanMS, dispatchMS, imbal []float64
	shardNS                                                          []time.Duration
	hashNS, compNS, decNS, payloadNS, callNS                         time.Duration
	hashBytes, compIn, compOut, decBytes                             int64
	base                                                             volume.Stats // array state when tracing starts
	traced                                                           bool
	host0, nand0                                                     int64
	errs                                                             int
}

// count records a mirrored op's error: the array served every op without
// one, so any error means the mirror no longer tracks it.
func (m *oltpMirror) count(err error) {
	if err != nil {
		m.errs++
	}
}

func (o *oltp) startTrace() error {
	m := &oltpMirror{queues: make([][]inlinered.Op, o.shards), shardNS: make([]time.Duration, o.shards), base: o.arr.Stats()}
	for s := 0; s < o.shards; s++ {
		cfg := volume.DefaultConfig()
		cfg.Blocks = o.blocks / int64(o.shards)
		if int64(s) < o.blocks%int64(o.shards) {
			cfg.Blocks++
		}
		v, err := volume.New(cfg)
		if err != nil {
			return err
		}
		m.vols = append(m.vols, v)
	}
	o.m = m
	o.mirrorBatch(o.fill, nil, -1, -1, 0)
	return nil
}

func (o *oltp) replay(i int, tr *tracer, parent int32, callDur time.Duration) {
	if tr != nil && !o.m.traced {
		o.m.traced = true
		for _, v := range o.m.vols {
			st := v.Drive().Stats()
			o.m.host0 += st.HostWritePages
			o.m.nand0 += st.NANDWritePages
		}
	}
	o.mirrorBatch(o.slice(i), tr, parent, int64(i), callDur)
}

// mirrorBatch applies one Serve batch to the mirror volumes. With tr set
// it times every op and probes the write path's hash and codec on the
// same payload.
func (o *oltp) mirrorBatch(batch []inlinered.Op, tr *tracer, parent int32, req int64, callDur time.Duration) {
	m := o.m
	n := int64(o.shards)
	for s := range m.queues {
		m.queues[s] = m.queues[s][:0]
	}
	for _, op := range batch {
		s := op.LBA % n
		op.LBA /= n
		m.queues[s] = append(m.queues[s], op)
	}
	probe := tr != nil
	var payloadNS time.Duration
	for s, q := range m.queues {
		v := m.vols[s]
		var shard time.Duration
		sid, st := tr.begin("volume.shard", parent, req)
		for k, op := range q {
			var d time.Duration
			switch op.Kind {
			case inlinered.OpWrite:
				t := time.Now()
				m.payload = workload.UniqueChunkInto(m.payload[:0], o.opts.ContentSeed, op.Content, blockBytes, oltpFill)
				pd := time.Since(t)
				payloadNS += pd
				var hits int64
				if probe {
					hits = v.Stats().DedupHits
				}
				id, t := tr.begin("volume.Write", sid, req)
				_, err := v.Write(op.LBA, m.payload)
				d = tr.end(id, t)
				m.count(err)
				if probe {
					o.probeWrite(d, v.Stats().DedupHits > hits, tr, sid, req)
				}
				d += pd // Serve generates the payload on the shard's worker too
			case inlinered.OpRead:
				id, t := tr.begin("volume.ReadInto", sid, req)
				var err error
				m.readBuf, _, err = v.ReadInto(m.readBuf[:0], op.LBA)
				d = tr.end(id, t)
				m.count(err)
				if probe {
					m.readUS = append(m.readUS, float64(d)/1e3)
				}
			case inlinered.OpTrim:
				id, t := tr.begin("volume.Trim", sid, req)
				_, err := v.Trim(op.LBA)
				d = tr.end(id, t)
				m.count(err)
				if probe {
					m.trimUS = append(m.trimUS, float64(d)/1e3)
				}
			}
			shard += d
			if o.opts.CleanEvery > 0 && (k+1)%o.opts.CleanEvery == 0 {
				id, t := tr.begin("volume.Clean", sid, req)
				_, err := v.Clean()
				cd := tr.end(id, t)
				m.count(err)
				shard += cd
				if probe {
					m.cleanMS = append(m.cleanMS, float64(cd)/1e6)
				}
			}
		}
		tr.end(sid, st)
		m.shardNS[s] = shard
	}
	if !probe {
		return
	}
	var slowest time.Duration
	for _, d := range m.shardNS {
		if d > slowest {
			slowest = d
		}
	}
	m.dispatchMS = append(m.dispatchMS, float64(callDur-slowest)/1e6)
	m.imbal = append(m.imbal, imbalance(m.shardNS))
	m.payloadNS += payloadNS
	m.callNS += callDur
}

// probeWrite records one mirrored write and times the hash and codec it
// ran on the same payload, so the write's self time excludes them.
func (o *oltp) probeWrite(d time.Duration, dup bool, tr *tracer, parent int32, req int64) {
	m := o.m
	id, t := tr.begin("dedup.Sum", parent, req)
	dedup.Sum(m.payload)
	hd := tr.end(id, t)
	m.hashNS += hd
	m.hashBytes += int64(len(m.payload))
	self := d - hd
	if !dup {
		cfg := volume.DefaultConfig()
		id, t = tr.begin("lz.CompressCodec", parent, req)
		m.blob, _ = lz.CompressCodec(cfg.Codec, m.blob[:0], m.payload, cfg.LZ)
		cd := tr.end(id, t)
		m.compNS += cd
		m.compIn += int64(len(m.payload))
		m.compOut += int64(len(m.blob))
		self -= cd
		id, t = tr.begin("lz.Decompress", parent, req)
		m.dec, _ = lz.Decompress(m.dec[:0], m.blob)
		m.decNS += tr.end(id, t)
		m.decBytes += int64(len(m.payload))
	}
	m.writeUS = append(m.writeUS, float64(d)/1e3)
	m.writeSelfUS = append(m.writeSelfUS, float64(self)/1e3)
}

func (o *oltp) layers() (map[string]float64, error) {
	m := o.m
	if m.errs > 0 {
		return nil, fmt.Errorf("%d mirrored ops failed", m.errs)
	}
	for s, st := range o.arr.ShardStats() {
		mst := m.vols[s].Stats()
		if mst.Writes != st.Writes || mst.DedupHits != st.DedupHits || mst.CacheHits != st.CacheHits ||
			mst.StoredBytes != st.StoredBytes || mst.MovedBytes != st.MovedBytes || mst.JournalBytes != st.JournalBytes {
			return nil, fmt.Errorf("shard %d mirror counters differ from the array's", s)
		}
	}
	base, end := m.base, o.arr.Stats()
	writtenMB := float64(end.Writes-base.Writes) * blockBytes / (1 << 20)
	lookups := end.CacheHits + end.CacheMisses - base.CacheHits - base.CacheMisses
	var host, nand int64
	for _, v := range m.vols {
		st := v.Drive().Stats()
		host += st.HostWritePages
		nand += st.NANDWritePages
	}
	return map[string]float64{
		"dedup.hash_ns_per_MB":         nsPerMB(m.hashNS, m.hashBytes),
		"dedup.hit_ratio":              ratio(float64(end.DedupHits-base.DedupHits), float64(end.Writes-base.Writes)),
		"lz.compress_ns_per_MB":        nsPerMB(m.compNS, m.compIn),
		"lz.compress_ratio":            ratio(float64(m.compIn), float64(m.compOut)),
		"volume.write_us_p50":          quantile(m.writeUS, 0.5),
		"volume.write_us_p90":          quantile(m.writeUS, 0.9),
		"volume.write_self_us_p50":     quantile(m.writeSelfUS, 0.5),
		"volume.read_us_p50":           quantile(m.readUS, 0.5),
		"volume.trim_us_p50":           quantile(m.trimUS, 0.5),
		"volume.clean_ms_p50":          quantile(m.cleanMS, 0.5),
		"lz.decode_ns_per_MB":          nsPerMB(m.decNS, m.decBytes),
		"volume.cache_hit_rate":        ratio(float64(end.CacheHits-base.CacheHits), float64(lookups)),
		"volume.gc_moved_bytes_per_MB": ratio(float64(end.MovedBytes-base.MovedBytes), writtenMB),
		"ssd.write_amplification":      ratio(float64(nand-m.nand0), float64(host-m.host0)),
		"dedup.journal_bytes_per_MB":   ratio(float64(end.JournalBytes-base.JournalBytes), writtenMB),
		"serve.dispatch_ms_p50":        quantile(m.dispatchMS, 0.5),
		"serve.shard_imbalance":        quantile(m.imbal, 0.5),
		"workload.payload_share":       ratio(float64(m.payloadNS)/float64(o.shards), float64(m.callNS)),
	}, nil
}

func (o *oltp) close() {
	if o.arr != nil {
		o.arr.Close()
	}
}
