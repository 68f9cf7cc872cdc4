package lz

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refMatcher, refTokenWriter and encodeRangeRef are the two-pass encoder
// the single-pass matcher replaced, kept as the reference it must agree
// with exactly (the matchLenRef pattern): find(pos) hashes pos and walks
// its chain, then insert(pos) hashes pos again and links it, with int32
// tables and append-grown tokens. TestEncodeRangeMatchesRef and
// FuzzEncodeRange hold encodeRange to the same token bytes and Stats.
type refMatcher struct {
	head [1 << hashBits]int32 // position+1, 0 = empty chain
	prev []int32              // real positions, -1 = end
	data []byte
}

func newRefMatcher(data []byte) *refMatcher {
	return &refMatcher{prev: make([]int32, len(data)), data: data}
}

func (m *refMatcher) insert(pos int) {
	if pos+4 > len(m.data) {
		return
	}
	h := hash4(binary.LittleEndian.Uint32(m.data[pos:]))
	m.prev[pos] = m.head[h] - 1
	m.head[h] = int32(pos) + 1
}

func (m *refMatcher) find(pos, reach, maxChain int) (offset, length, steps int) {
	if pos+4 > len(m.data) {
		return 0, 0, 0
	}
	if reach > Window {
		reach = Window
	}
	limit := pos - reach
	if limit < 0 {
		limit = 0
	}
	maxLen := len(m.data) - pos
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	h := hash4(binary.LittleEndian.Uint32(m.data[pos:]))
	cand := m.head[h] - 1
	bestLen, bestOff := 0, 0
	data := m.data
	for cand >= 0 && int(cand) >= limit && steps < maxChain {
		steps++
		c := int(cand)
		if c < pos && data[c+bestLen] == data[pos+bestLen] {
			l := matchLen(data, c, pos, maxLen)
			if l > bestLen {
				bestLen, bestOff = l, pos-c
				if l == maxLen {
					break
				}
			}
		}
		cand = m.prev[cand]
	}
	if bestLen < MinMatch {
		return 0, 0, steps
	}
	return bestOff, bestLen, steps
}

type refTokenWriter struct {
	out      []byte
	flagPos  int
	flagBit  uint
	literals int
	matches  int
}

func (w *refTokenWriter) item(isMatch bool) {
	if w.flagBit == 0 {
		w.flagPos = len(w.out)
		w.out = append(w.out, 0)
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

func (w *refTokenWriter) literal(b byte) {
	w.item(false)
	w.out = append(w.out, b)
	w.literals++
}

func (w *refTokenWriter) match(offset, length int) {
	w.item(true)
	v := uint16(offset-1)<<4 | uint16(length-MinMatch)
	w.out = append(w.out, byte(v>>8), byte(v))
	w.matches++
}

func encodeRangeRef(out, data []byte, from int, p Params) ([]byte, Stats) {
	if p.MaxChain < 1 {
		p.MaxChain = 1
	}
	m := newRefMatcher(data)
	for i := 0; i < from; i++ {
		m.insert(i)
	}
	w := refTokenWriter{out: out}
	var st Stats
	st.SrcBytes = len(data) - from
	pos := from
	for pos < len(data) {
		off, l, steps := m.find(pos, pos, p.MaxChain)
		st.SearchSteps += steps
		if l >= MinMatch && p.Lazy && pos+1 < len(data) && l < MaxMatch {
			m.insert(pos)
			off2, l2, steps2 := m.find(pos+1, pos+1, p.MaxChain)
			st.SearchSteps += steps2
			if l2 > l {
				w.literal(data[pos])
				pos++
				off, l = off2, l2
			} else {
				w.match(off, l)
				for i := 1; i < l; i++ {
					m.insert(pos + i)
				}
				pos += l
				continue
			}
			w.match(off, l)
			for i := 0; i < l; i++ {
				m.insert(pos + i)
			}
			pos += l
			continue
		}
		if l >= MinMatch {
			w.match(off, l)
			for i := 0; i < l; i++ {
				m.insert(pos + i)
			}
			pos += l
		} else {
			w.literal(data[pos])
			m.insert(pos)
			pos++
		}
	}
	st.Literals, st.Matches = w.literals, w.matches
	st.Positions = w.literals + w.matches
	return w.out, st
}

// refInput builds an n-byte encoder input: uniform random bytes when
// alphabet is 0 (mostly literals), otherwise bytes drawn from a small
// alphabet with occasional copied runs (long chains, many matches,
// max-length and lazy-switch cases).
func refInput(rng *rand.Rand, n, alphabet int) []byte {
	data := make([]byte, n)
	if alphabet == 0 {
		rng.Read(data)
		return data
	}
	for i := 0; i < n; i++ {
		if i > 32 && rng.Intn(16) == 0 {
			// Copy a short run from up to two windows back.
			src := i - 1 - rng.Intn(min(i, 2*Window))
			for k := rng.Intn(24); k > 0 && i < n; k-- {
				data[i] = data[src]
				i++
				src++
			}
			if i >= n {
				break
			}
		}
		data[i] = byte('a' + rng.Intn(alphabet))
	}
	return data
}

// checkEncodeRange encodes data[from:] with both encoders and fails on any
// difference in token bytes or Stats. The new encoder runs twice: once
// appending to a prefixed dst whose spare capacity holds stale bytes (a
// recycled scratch), once from nil.
func checkEncodeRange(t *testing.T, data []byte, from int, p Params) {
	t.Helper()
	want, wantSt := encodeRangeRef(nil, data, from, p)
	prefix := []byte("prefix")
	dirty := bytes.Repeat([]byte{0xff}, len(prefix)+maxTokens(len(data)))
	copy(dirty, prefix)
	dirty = dirty[:len(prefix)]
	for _, out := range [][]byte{nil, dirty} {
		got, gotSt := encodeRange(out, data, from, p)
		if !bytes.Equal(got[:len(out)], out) {
			t.Fatalf("n=%d from=%d %+v: dst prefix overwritten", len(data), from, p)
		}
		if !bytes.Equal(got[len(out):], want) {
			t.Fatalf("n=%d from=%d %+v: token bytes differ from reference (%d vs %d bytes)",
				len(data), from, p, len(got)-len(out), len(want))
		}
		if gotSt != wantSt {
			t.Fatalf("n=%d from=%d %+v: stats %+v, reference %+v", len(data), from, p, gotSt, wantSt)
		}
	}
}

// TestEncodeRangeMatchesRef differentially tests the single-pass encoder
// against encodeRangeRef over sizes 0-20 KiB plus sizes around 64 KiB
// (both position-table widths), random and small-alphabet fills,
// preloaded history (from > 0), MaxChain 1-64, and lazy on and off.
func TestEncodeRangeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	alphabets := []int{0, 1, 2, 4, 16}
	cases := 2000
	if testing.Short() {
		cases = 300
	}
	for i := 0; i < cases; i++ {
		n := rng.Intn(20<<10 + 1)
		if i%3 == 0 {
			n = rng.Intn(64) // tiny inputs: hashable-bound edges
		}
		data := refInput(rng, n, alphabets[rng.Intn(len(alphabets))])
		from := 0
		if n > 0 && rng.Intn(2) == 0 {
			from = rng.Intn(n + 1)
		}
		p := Params{MaxChain: 1 + rng.Intn(64), Lazy: rng.Intn(2) == 0}
		checkEncodeRange(t, data, from, p)
	}
	// Both table widths: 16-bit entries hold every position+1 below
	// 64 KiB; 65535 is the largest 16-bit input, 65536 the smallest
	// 32-bit one.
	for _, n := range []int{65535, 65536, 70000} {
		for _, alphabet := range []int{0, 4} {
			data := refInput(rng, n, alphabet)
			checkEncodeRange(t, data, 0, DefaultParams())
			checkEncodeRange(t, data, n-3000, BestParams())
		}
	}
}

// FuzzEncodeRange: the single-pass encoder must produce the reference
// encoder's token bytes and Stats for any input, history preload, chain
// depth and lazy setting.
func FuzzEncodeRange(f *testing.F) {
	for _, data := range corpus() {
		f.Add(data, uint16(0), uint8(16), false)
		f.Add(data, uint16(len(data)/2), uint8(64), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, from uint16, maxChain uint8, lazy bool) {
		fr := 0
		if len(data) > 0 {
			fr = int(from) % (len(data) + 1)
		}
		checkEncodeRange(t, data, fr, Params{MaxChain: int(maxChain), Lazy: lazy})
	})
}
