// Package lz implements the LZ compression half of the pipeline: a real
// LZSS codec of the class primary storage systems use inline (§2: history
// buffer + look-ahead buffer, match replaces the look-ahead sequence with a
// pointer into the history buffer), in the three shapes the paper needs:
//
//   - Compress/Decompress: the single-stream CPU codec (the "previously
//     studied compression algorithm" each CPU worker thread runs per chunk,
//     §3.2(1); QuickLZ-class in the paper's evaluation).
//   - CompressSubBlocks: the GPU kernel's shape (§3.2(2)) — several lanes
//     per 4 KB chunk, each compressing its own sub-block with its own
//     history/look-ahead buffers, adjacent lanes overlapping by part of the
//     history window so cross-boundary redundancy is not all lost.
//   - PostProcess: the CPU refinement step (§3.2(2)) that stitches the raw
//     per-lane token streams into the final container and falls back to a
//     raw store when compression did not pay.
//
// Every encoder reports Stats with the real work performed (bytes, tokens,
// match-search steps), which the CPU and GPU cost models convert into
// virtual time — so compressible data is faster, exactly as on hardware.
//
// # Format
//
// A compressed blob is: one mode byte, a uvarint source length, then a
// payload.
//
//	mode 0 (raw):  payload is the source verbatim.
//	mode 1 (lzss): payload is an LZSS token stream.
//	mode 2 (sub):  uvarint part count, then per part a uvarint payload
//	               length, then the parts' LZSS token streams. Parts decode
//	               sequentially into one output buffer, so a part's matches
//	               may reach back into the previous part (the overlap).
//	               Legacy: retained for decode compatibility only.
//	mode 4 (sub, indexed): uvarint part count, then per part a uvarint
//	               token length AND a uvarint output length (the boundary
//	               table), then the token streams. The output lengths let a
//	               decoder resolve every part's output range without
//	               touching a token — sub-blocks then decode independently
//	               (see ResolveSubBlocks/DecodeSubPart) — and pin each
//	               part's produced bytes exactly, so a truncated part is an
//	               error instead of being masked by the parts after it.
//	               This is what PostProcess writes.
//
// The token stream is flag-byte interleaved: each flag byte describes the
// next 8 items, LSB first; bit 0 = literal (1 byte), bit 1 = match (2
// bytes: 12-bit offset-1, 4-bit length-MinMatch).
package lz

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Format constants. Window/offset/length widths are fixed by the 2-byte
// match token encoding.
const (
	Window    = 4096 // history buffer size (12-bit offsets)
	MinMatch  = 3    // shortest encodable match
	MaxMatch  = 18   // longest encodable match (4-bit length field)
	hashBits  = 13
	hashShift = 32 - hashBits
)

// Blob modes.
const (
	ModeRaw  = 0
	ModeLZSS = 1
	ModeSub  = 2 // legacy sub-block container (no boundary table); decode only
	ModeQLZ  = 3
	// ModeSubIdx is the indexed sub-block container: mode 2 plus a per-part
	// output-length table, written so sub-blocks can decode independently.
	ModeSubIdx = 4
)

// Codec selects the CPU compression algorithm.
type Codec int

const (
	// CodecLZSS is the hash-chain LZSS encoder (better ratio).
	CodecLZSS Codec = iota
	// CodecQLZ is the QuickLZ-class single-probe encoder (faster, the
	// paper's CPU baseline family).
	CodecQLZ
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case CodecLZSS:
		return "lzss"
	case CodecQLZ:
		return "qlz"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// CompressCodec dispatches to the selected codec. Params applies to LZSS
// only (QLZ has no tuning knobs, like its namesake's level 1).
func CompressCodec(c Codec, dst, src []byte, p Params) ([]byte, Stats) {
	if c == CodecQLZ {
		return CompressQLZ(dst, src)
	}
	return Compress(dst, src, p)
}

// Params tune the encoder's match search.
type Params struct {
	// MaxChain bounds the hash-chain probes per position: the encoder's
	// effort/ratio knob. Higher finds better matches but costs more
	// search steps (virtual time).
	MaxChain int
	// Lazy enables one-step lazy matching: when a match is found, the
	// encoder also tries the next position and emits a literal instead if
	// the deferred match is strictly longer. Better ratio for roughly one
	// extra search per match.
	Lazy bool
}

// DefaultParams returns the fast, storage-inline-grade search depth.
func DefaultParams() Params { return Params{MaxChain: 16} }

// BestParams returns the slower, better-ratio configuration (deep chains
// plus lazy matching) for offline or background recompression.
func BestParams() Params { return Params{MaxChain: 64, Lazy: true} }

// Stats reports the real work an encode performed.
type Stats struct {
	SrcBytes  int // input bytes
	DstBytes  int // output bytes including header
	Literals  int // literal tokens emitted
	Matches   int // match tokens emitted
	Positions int // encoder positions processed (literals + matches); the
	// dominant work term — long matches advance many bytes per position,
	// which is why compressible data encodes faster
	SearchSteps int // hash-chain candidates examined
}

// Ratio returns SrcBytes/DstBytes (the paper's "compression ratio"), or 0
// when nothing was produced.
func (s Stats) Ratio() float64 {
	if s.DstBytes == 0 {
		return 0
	}
	return float64(s.SrcBytes) / float64(s.DstBytes)
}

func hash4(v uint32) uint32 {
	return (v * 2654435761) >> hashShift
}

// posEntry is a position-table entry: uint16 when every position+1 of
// the buffer fits (inputs under 64 KiB, which covers the engine's chunks
// and sub-block lanes), uint32 otherwise.
type posEntry interface{ ~uint16 | ~uint32 }

// matcher is a single-pass hash-chain match finder over one contiguous
// buffer: step hashes a position once, reads its chain head once, links
// the position in and walks the chain it displaced. Both tables store
// position+1 (0 = empty chain / end of chain), so resetting head is one
// memclr and prev never needs resetting: a position's prev entry is
// written before anything can reach it. With 16-bit entries a 4 KB chunk's
// tables are 24 KB (head 16 KB, prev 8 KB) and sit in L1 next to the data.
type matcher[T posEntry] struct {
	head  [1 << hashBits]T
	prev  []T
	class int // pool size class (see matcherPool)
}

// matcherPool recycles matchers across encodes, bucketed by the prev
// chain's power-of-two size class: the tables are by far the codec's
// largest allocation, and resetting head is much cheaper than
// reallocating under GC pressure. Bucketing by size keeps a matcher sized
// for 4 KB chunks from ping-ponging with the sub-block encoder's much
// smaller lanes (or an occasional large buffer), so a get almost never
// reallocates prev. Safe for the engine's concurrent compression workers.
type matcherPool[T posEntry] [33]sync.Pool

var (
	matchers16 matcherPool[uint16]
	matchers32 matcherPool[uint32]
)

// matcherSizeClass returns the bucket index for a buffer of n bytes: the
// smallest power of two >= n (class 0 holds n <= 1).
func matcherSizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a reset matcher for an n-byte buffer.
func (mp *matcherPool[T]) get(n int) *matcher[T] {
	class := matcherSizeClass(n)
	m, _ := mp[class].Get().(*matcher[T])
	if m == nil {
		m = &matcher[T]{prev: make([]T, 1<<class), class: class}
	}
	m.prev = m.prev[:n]
	clear(m.head[:])
	return m
}

// put returns m to the pool; the caller must not use it afterwards.
func (mp *matcherPool[T]) put(m *matcher[T]) { mp[m.class].Put(m) }

// link inserts positions [lo, hi) into their chains. Callers bound hi by
// the hashable limit (pos+4 <= len(data)).
func (m *matcher[T]) link(data []byte, lo, hi int) {
	for pos := lo; pos < hi; pos++ {
		h := hash4(binary.LittleEndian.Uint32(data[pos:]))
		m.prev[pos] = m.head[h]
		m.head[h] = T(pos + 1)
	}
}

// push links the hashable position pos into its chain and returns the
// head it displaced: the newest earlier candidate, as position+1 (0 when
// the chain was empty).
func (m *matcher[T]) push(data []byte, pos int) int {
	h := hash4(binary.LittleEndian.Uint32(data[pos:]))
	cand := int(m.head[h])
	m.prev[pos] = T(cand)
	m.head[h] = T(pos + 1)
	return cand
}

// step links the hashable position pos into its chain and returns the
// best match for it within the format window, with the chain steps
// examined. It equals the two-pass reference's find(pos) followed by
// insert(pos) (encodeRangeRef, in the tests): every linked position is
// below pos, so the walk from the displaced head sees the same candidates.
// The hot loop open-codes it so that push inlines and the walk is only
// called when the displaced head is inside the window.
func (m *matcher[T]) step(data []byte, pos, maxChain int) (offset, length, steps int) {
	if cand := m.push(data, pos); cand > max(pos-Window, 0) {
		return m.walk(data, pos, cand, maxChain)
	}
	return 0, 0, 0
}

// walk returns the best match for pos along the chain whose newest
// candidate is cand (position+1, inside the window), and the candidates
// examined.
//
// The steps accounting is part of the virtual-time cost model and counts
// chain candidates EXAMINED, exactly as the original scalar walk did; the
// best-len-first rejection probe below only avoids the full matchLen walk
// for candidates that cannot beat the current best (their byte at offset
// bestLen differs, so their match length is <= bestLen), never changing
// which candidates count as a step or what the function returns.
func (m *matcher[T]) walk(data []byte, pos, cand, maxChain int) (offset, length, steps int) {
	// Candidates at or below limit (in position+1 terms) are outside the
	// window; the end-of-chain 0 always is.
	limit := max(pos-Window, 0)
	maxLen := min(len(data)-pos, MaxMatch)
	bestLen, bestOff := 0, 0
	for cand > limit && steps < maxChain {
		steps++
		c := cand - 1
		// Rejection probe: while bestLen < maxLen (guaranteed — a maxLen
		// match breaks out below), a candidate whose byte at bestLen
		// mismatches can only match <= bestLen bytes and cannot improve
		// the result; skip its compare loop entirely.
		if data[c+bestLen] == data[pos+bestLen] {
			l := matchLen(data, c, pos, maxLen)
			if l > bestLen {
				bestLen, bestOff = l, pos-c
				if l == maxLen {
					break
				}
			}
		}
		cand = int(m.prev[c])
	}
	if bestLen < MinMatch {
		return 0, 0, steps
	}
	return bestOff, bestLen, steps
}

// matchLen returns how many of the first max bytes at data[a:] and
// data[b:] are equal, comparing word-at-a-time with a scalar tail. Callers
// guarantee a < b and b+max <= len(data), so every 8-byte load inside the
// word loop (n+8 <= max) is in bounds for both positions. Overlapping
// ranges (b-a < 8) are fine: each load reads the bytes as they are, which
// is exactly what the scalar reference loop compares. Must return
// identically to matchLenRef (differential + fuzz tested).
func matchLen(data []byte, a, b, max int) int {
	n := 0
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(data[a+n:]) ^ binary.LittleEndian.Uint64(data[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// tokenWriter emits the flag-interleaved token stream into capacity
// reserved up front for the worst case, so no write appends.
type tokenWriter struct {
	out      []byte // reserved space; out[:n] is written
	n        int
	flagPos  int // index of the pending flag byte
	flagBit  uint
	literals int
	matches  int
}

// maxTokens is the worst-case token-stream size for n input bytes: every
// byte a literal, plus one flag byte per 8 items. A match spends 3 bytes
// (with its flag share) on at least 3 input bytes, so it never costs more.
func maxTokens(n int) int { return n + (n+7)/8 }

func (w *tokenWriter) item(isMatch bool) {
	if w.flagBit == 0 {
		w.flagPos = w.n
		w.out[w.n] = 0
		w.n++
		w.flagBit = 1
	}
	if isMatch {
		w.out[w.flagPos] |= byte(w.flagBit)
	}
	w.flagBit <<= 1
	if w.flagBit == 1<<8 {
		w.flagBit = 0
	}
}

func (w *tokenWriter) literal(b byte) {
	w.item(false)
	w.out[w.n] = b
	w.n++
	w.literals++
}

func (w *tokenWriter) match(offset, length int) {
	w.item(true)
	v := uint16(offset-1)<<4 | uint16(length-MinMatch)
	w.out[w.n] = byte(v >> 8)
	w.out[w.n+1] = byte(v)
	w.n += 2
	w.matches++
}

// encodeRange compresses data[from:] as one token stream appended to out
// (pass nil to allocate, or a recycled scratch to avoid it; capacity for
// maxTokens(len(data)-from) more bytes avoids any growth), allowing
// matches to reach back into data[:from] (the preloaded history). It
// returns the token stream and stats for the encoded range.
func encodeRange(out, data []byte, from int, p Params) ([]byte, Stats) {
	if len(data) < 1<<16 {
		return encodeWith(&matchers16, out, data, from, p)
	}
	return encodeWith(&matchers32, out, data, from, p)
}

// encodeWith is encodeRange's body for one position-table width. Each
// position is linked exactly once, in increasing order, and every link
// of a searched position happens in its step, so the walk at pos sees
// exactly the positions below it.
func encodeWith[T posEntry](mp *matcherPool[T], out, data []byte, from int, p Params) ([]byte, Stats) {
	maxChain := max(p.MaxChain, 1)
	m := mp.get(len(data))
	// Positions below hashable have a full 4-byte group to hash; the
	// rest can only be literals.
	hashable := len(data) - 3
	m.link(data, 0, min(from, hashable))
	base := len(out)
	out = slices.Grow(out, maxTokens(len(data)-from))
	w := tokenWriter{out: out[base : base+maxTokens(len(data)-from)]}
	st := Stats{SrcBytes: len(data) - from}
	pos := from
	for pos < hashable {
		var off, l, steps int
		if cand := m.push(data, pos); cand > max(pos-Window, 0) {
			off, l, steps = m.walk(data, pos, cand, maxChain)
			st.SearchSteps += steps
		}
		if l < MinMatch {
			w.literal(data[pos])
			pos++
			continue
		}
		linked := pos + 1 // positions below linked are in their chains
		if p.Lazy && l < MaxMatch && pos+1 < hashable {
			// One-step lazy evaluation: if the match starting one byte
			// later is strictly longer, emit this byte as a literal and
			// take the longer match instead.
			off2, l2, steps2 := m.step(data, pos+1, maxChain)
			st.SearchSteps += steps2
			linked++
			if l2 > l {
				w.literal(data[pos])
				pos++
				off, l = off2, l2
			}
		}
		w.match(off, l)
		m.link(data, linked, min(pos+l, hashable))
		pos += l
	}
	for ; pos < len(data); pos++ {
		w.literal(data[pos])
	}
	mp.put(m)
	st.Literals, st.Matches = w.literals, w.matches
	st.Positions = w.literals + w.matches
	return out[:base+w.n], st
}

// StoreRaw encodes src as a mode-0 (uncompressed) blob appended to dst.
// Used by pipelines that store chunks without compression but want the
// uniform self-describing container.
func StoreRaw(dst, src []byte) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = ModeRaw
	n := binary.PutUvarint(hdr[1:], uint64(len(src)))
	dst = append(dst, hdr[:n+1]...)
	return append(dst, src...)
}

// tokenScratch recycles token-stream staging buffers: the encoder writes
// tokens into a scratch buffer that is copied into the caller's dst and
// immediately reusable, so steady-state encodes allocate nothing.
type tokenScratch struct{ buf []byte }

var tokenScratchPool = sync.Pool{New: func() any { return new(tokenScratch) }}

// Compress encodes src as a self-describing blob (mode 1, or mode 0 when
// compression does not pay) appended to dst, returning the result and the
// encode stats. An empty src produces a valid empty blob.
func Compress(dst, src []byte, p Params) ([]byte, Stats) {
	sc := tokenScratchPool.Get().(*tokenScratch)
	tokens, st := encodeRange(sc.buf[:0], src, 0, p)
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[1:], uint64(len(src)))
	if len(tokens)+n+1 >= len(src) {
		// Store raw: compression did not pay.
		hdr[0] = ModeRaw
		dst = append(dst, hdr[:n+1]...)
		dst = append(dst, src...)
		st = Stats{SrcBytes: len(src), SearchSteps: st.SearchSteps, Positions: st.Positions, DstBytes: n + 1 + len(src)}
	} else {
		hdr[0] = ModeLZSS
		dst = append(dst, hdr[:n+1]...)
		dst = append(dst, tokens...)
		st.DstBytes = n + 1 + len(tokens)
	}
	sc.buf = tokens
	tokenScratchPool.Put(sc)
	return dst, st
}
