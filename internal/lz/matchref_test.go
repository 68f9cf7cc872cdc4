package lz

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// matchLenRef is the original scalar byte-at-a-time comparison loop, kept
// as the reference the word-wise matchLen must agree with exactly. The
// differential tests and FuzzMatchLen below hold the two together over
// random and adversarial overlaps; the golden table further down pins the
// encoder's observable output (token bytes and SearchSteps) to the values
// the scalar loop produced, so the optimization cannot drift the virtual
// cost model.
func matchLenRef(data []byte, a, b, max int) int {
	n := 0
	for n < max && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// matchLenCases enumerates (data, a, b, max) triples that exercise the
// word-wise loop's edges: mismatches inside the first word, on every byte
// lane, exactly at the tail, and runs longer than several words.
func matchLenCases() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var cases [][]byte
	// Fully equal halves of varying lengths, including non-multiples of 8.
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 255, 256, 300} {
		half := make([]byte, n)
		rng.Read(half)
		cases = append(cases, append(append([]byte{}, half...), half...))
	}
	// Equal halves with a single mismatch planted at every early position.
	for planted := 0; planted < 24; planted++ {
		half := make([]byte, 40)
		rng.Read(half)
		data := append(append([]byte{}, half...), half...)
		data[len(half)+planted] ^= 0x5a
		cases = append(cases, data)
	}
	// Pure random (mismatch almost immediately) and all-equal bytes.
	random := make([]byte, 512)
	rng.Read(random)
	cases = append(cases, random, bytes.Repeat([]byte{0xee}, 512))
	return cases
}

func TestMatchLenMatchesReference(t *testing.T) {
	for ci, data := range matchLenCases() {
		for a := 0; a < len(data) && a < 48; a++ {
			for b := a + 1; b < len(data); b += 7 {
				for _, max := range []int{0, 1, 4, 7, 8, 16, 18, 256, len(data) - b} {
					if max > len(data)-b {
						continue
					}
					got := matchLen(data, a, b, max)
					want := matchLenRef(data, a, b, max)
					if got != want {
						t.Fatalf("case %d a=%d b=%d max=%d: matchLen=%d, ref=%d", ci, a, b, max, got, want)
					}
				}
			}
		}
	}
}

// TestMatchLenOverlapping covers the self-referential case the encoder
// relies on for run-length-style matches: a and b close together, so the
// compared ranges overlap.
func TestMatchLenOverlapping(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3}, 100)
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 24; b++ {
			for max := 0; max <= len(data)-b; max += 5 {
				got := matchLen(data, a, b, max)
				want := matchLenRef(data, a, b, max)
				if got != want {
					t.Fatalf("a=%d b=%d max=%d: matchLen=%d, ref=%d", a, b, max, got, want)
				}
			}
		}
	}
}

// encoderGoldens pins Compress/CompressQLZ output bytes (sha256 prefix) and
// SearchSteps on the shared test corpus to the values recorded with the
// scalar matcher, before matchLen went word-wise and find gained the
// best-len rejection probe. SearchSteps feeds the virtual-time cost model,
// and the token bytes feed the golden Report/trace files in internal/core —
// neither may move.
var encoderGoldens = []struct {
	name, cfg string
	steps     int
	dstBytes  int
	sum       string
}{
	{"empty", "default", 0, 2, "96a296d224f285c6"},
	{"empty", "best", 0, 2, "96a296d224f285c6"},
	{"empty", "qlz", 0, 2, "96a296d224f285c6"},
	{"mixed", "default", 366, 2551, "78df75e04e7d6353"},
	{"mixed", "best", 367, 2551, "78df75e04e7d6353"},
	{"mixed", "qlz", 235, 2336, "97efdc6ebdf9d168"},
	{"onebyte", "default", 0, 3, "e5d8594f7b3e3d1e"},
	{"onebyte", "best", 0, 3, "e5d8594f7b3e3d1e"},
	{"onebyte", "qlz", 0, 3, "e5d8594f7b3e3d1e"},
	{"periodic", "default", 272, 589, "e60c8a8ace704e4a"},
	{"periodic", "best", 273, 589, "e60c8a8ace704e4a"},
	{"periodic", "qlz", 19, 71, "912ecf7681035c72"},
	{"random", "default", 1093, 4099, "c4fa2661692f006e"},
	{"random", "best", 1093, 4099, "c4fa2661692f006e"},
	{"random", "qlz", 904, 4099, "c4fa2661692f006e"},
	{"text", "default", 299, 580, "7d131088e8c64e0f"},
	{"text", "best", 301, 579, "9a815dfe9155002b"},
	{"text", "qlz", 20, 111, "dbab4789fa0057d7"},
	{"tiny", "default", 0, 5, "757f0dea9aa0c1f8"},
	{"tiny", "best", 0, 5, "757f0dea9aa0c1f8"},
	{"tiny", "qlz", 0, 5, "757f0dea9aa0c1f8"},
	{"zeros", "default", 228, 489, "edb395802de7131d"},
	{"zeros", "best", 229, 489, "edb395802de7131d"},
	{"zeros", "qlz", 16, 56, "f24b930d5df6fc17"},
}

func TestEncoderOutputUnchangedByMatcherOptimization(t *testing.T) {
	data := corpus()
	for _, g := range encoderGoldens {
		var blob []byte
		var st Stats
		switch g.cfg {
		case "default":
			blob, st = Compress(nil, data[g.name], DefaultParams())
		case "best":
			blob, st = Compress(nil, data[g.name], BestParams())
		case "qlz":
			blob, st = CompressQLZ(nil, data[g.name])
		default:
			t.Fatalf("unknown config %q", g.cfg)
		}
		if st.SearchSteps != g.steps {
			t.Errorf("%s/%s: SearchSteps %d, golden %d (virtual-time cost model would shift)", g.name, g.cfg, st.SearchSteps, g.steps)
		}
		if st.DstBytes != g.dstBytes {
			t.Errorf("%s/%s: DstBytes %d, golden %d", g.name, g.cfg, st.DstBytes, g.dstBytes)
		}
		sum := sha256.Sum256(blob)
		if got := fmt.Sprintf("%x", sum[:8]); got != g.sum {
			t.Errorf("%s/%s: token bytes hash %s, golden %s", g.name, g.cfg, got, g.sum)
		}
	}
}

// subBlockGoldens pins CompressSubBlocks per lane — token bytes (sha256
// prefix), SearchSteps and SrcBytes — on the shared test corpus, recorded
// with the two-pass find/insert encoder before the single-pass matcher.
// Lanes 1..n preload their left neighbour's overlap as history, so this
// covers encodeRange's from > 0 path, which the whole-chunk goldens above
// do not. "empty" has no lanes; every other input's lane count is pinned
// by its row count.
var subBlockGoldens = []struct {
	name, cfg string
	lane      int
	steps     int
	srcBytes  int
	sum       string
}{
	{"mixed", "default", 0, 57, 1024, "27799b10aae425e5"},
	{"mixed", "default", 1, 135, 1024, "fbcf8942faf4339d"},
	{"mixed", "default", 2, 57, 1024, "0743cda9efd4e4e0"},
	{"mixed", "default", 3, 57, 1024, "3f23c38cb1c30be0"},
	{"mixed", "best", 0, 57, 1024, "27799b10aae425e5"},
	{"mixed", "best", 1, 135, 1024, "fbcf8942faf4339d"},
	{"mixed", "best", 2, 58, 1024, "0743cda9efd4e4e0"},
	{"mixed", "best", 3, 58, 1024, "3f23c38cb1c30be0"},
	{"onebyte", "default", 0, 0, 1, "587bae728805519c"},
	{"onebyte", "best", 0, 0, 1, "587bae728805519c"},
	{"periodic", "default", 0, 68, 1225, "4f22b024640308d8"},
	{"periodic", "default", 1, 68, 1225, "c9c033974a0e5cd5"},
	{"periodic", "default", 2, 68, 1225, "c9c033974a0e5cd5"},
	{"periodic", "default", 3, 68, 1225, "c9c033974a0e5cd5"},
	{"periodic", "best", 0, 69, 1225, "4f22b024640308d8"},
	{"periodic", "best", 1, 68, 1225, "c9c033974a0e5cd5"},
	{"periodic", "best", 2, 68, 1225, "c9c033974a0e5cd5"},
	{"periodic", "best", 3, 68, 1225, "c9c033974a0e5cd5"},
	{"random", "default", 0, 57, 1024, "27799b10aae425e5"},
	{"random", "default", 1, 135, 1024, "fbcf8942faf4339d"},
	{"random", "default", 2, 123, 1024, "2c589cb11628a6d9"},
	{"random", "default", 3, 135, 1024, "9314aeb90871eb81"},
	{"random", "best", 0, 57, 1024, "27799b10aae425e5"},
	{"random", "best", 1, 135, 1024, "fbcf8942faf4339d"},
	{"random", "best", 2, 123, 1024, "2c589cb11628a6d9"},
	{"random", "best", 3, 135, 1024, "9314aeb90871eb81"},
	{"text", "default", 0, 74, 1125, "85c11d118cd0ff9f"},
	{"text", "default", 1, 76, 1125, "e51923b87649f6af"},
	{"text", "default", 2, 76, 1125, "e51923b87649f6af"},
	{"text", "default", 3, 76, 1125, "e51923b87649f6af"},
	{"text", "best", 0, 74, 1125, "c0f226256fd7d038"},
	{"text", "best", 1, 77, 1125, "e51923b87649f6af"},
	{"text", "best", 2, 77, 1125, "e51923b87649f6af"},
	{"text", "best", 3, 77, 1125, "e51923b87649f6af"},
	{"tiny", "default", 0, 0, 1, "022a6979e6dab7aa"},
	{"tiny", "default", 1, 0, 1, "57eb35615d47f34e"},
	{"tiny", "default", 2, 0, 1, "597fcb31282d3465"},
	{"tiny", "best", 0, 0, 1, "022a6979e6dab7aa"},
	{"tiny", "best", 1, 0, 1, "57eb35615d47f34e"},
	{"tiny", "best", 2, 0, 1, "597fcb31282d3465"},
	{"zeros", "default", 0, 57, 1024, "0743cda9efd4e4e0"},
	{"zeros", "default", 1, 57, 1024, "3f23c38cb1c30be0"},
	{"zeros", "default", 2, 57, 1024, "3f23c38cb1c30be0"},
	{"zeros", "default", 3, 57, 1024, "3f23c38cb1c30be0"},
	{"zeros", "best", 0, 58, 1024, "0743cda9efd4e4e0"},
	{"zeros", "best", 1, 58, 1024, "3f23c38cb1c30be0"},
	{"zeros", "best", 2, 58, 1024, "3f23c38cb1c30be0"},
	{"zeros", "best", 3, 58, 1024, "3f23c38cb1c30be0"},
}

func TestSubBlockEncoderGolden(t *testing.T) {
	data := corpus()
	cfgs := map[string]SubBlockParams{
		"default": DefaultSubBlockParams(),
		"best":    {Params: BestParams(), SubBlocks: 4, Overlap: Window / 8},
	}
	rows := make(map[string]int)
	for _, g := range subBlockGoldens {
		rows[g.name+"/"+g.cfg]++
	}
	for name, src := range data {
		for cfg, p := range cfgs {
			res := CompressSubBlocks(src, p)
			if len(res.Lanes) != rows[name+"/"+cfg] {
				t.Errorf("%s/%s: %d lanes, golden %d", name, cfg, len(res.Lanes), rows[name+"/"+cfg])
			}
		}
	}
	for _, g := range subBlockGoldens {
		res := CompressSubBlocks(data[g.name], cfgs[g.cfg])
		if g.lane >= len(res.Lanes) {
			continue // lane count already reported above
		}
		l := res.Lanes[g.lane]
		if l.Stats.SearchSteps != g.steps {
			t.Errorf("%s/%s lane %d: SearchSteps %d, golden %d (GPU cost model would shift)", g.name, g.cfg, g.lane, l.Stats.SearchSteps, g.steps)
		}
		if l.Stats.SrcBytes != g.srcBytes {
			t.Errorf("%s/%s lane %d: SrcBytes %d, golden %d", g.name, g.cfg, g.lane, l.Stats.SrcBytes, g.srcBytes)
		}
		sum := sha256.Sum256(l.Tokens)
		if got := fmt.Sprintf("%x", sum[:8]); got != g.sum {
			t.Errorf("%s/%s lane %d: token bytes hash %s, golden %s", g.name, g.cfg, g.lane, got, g.sum)
		}
	}
}
