package lz

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func benchChunk(fill float64) []byte {
	rng := rand.New(rand.NewSource(1))
	out := make([]byte, 4096)
	for i := 0; i < len(out); i += 64 {
		n := int(fill * 64)
		rng.Read(out[i : i+n])
	}
	return out
}

// BenchmarkMatchLen measures the innermost compare loop at the match
// lengths that dominate real streams: barely-minimum (4), typical (16),
// and long raw runs (256, the sub-block/QLZ regime).
func BenchmarkMatchLen(b *testing.B) {
	for _, ml := range []int{4, 16, 256} {
		b.Run(fmt.Sprintf("len%d", ml), func(b *testing.B) {
			data := make([]byte, 2*ml+16)
			rng := rand.New(rand.NewSource(int64(ml)))
			rng.Read(data[:ml])
			copy(data[ml:2*ml], data[:ml])
			data[2*ml] = ^data[ml] // force the mismatch exactly at ml
			b.SetBytes(int64(ml))
			for i := 0; i < b.N; i++ {
				if got := matchLen(data, 0, ml, ml+8); got != ml {
					b.Fatalf("matchLen = %d, want %d", got, ml)
				}
			}
		})
	}
}

func BenchmarkCompress4KIncompressible(b *testing.B) {
	data := benchChunk(1.0)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

func BenchmarkCompress4KHalfCompressible(b *testing.B) {
	data := benchChunk(0.5)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

func BenchmarkCompress4KZeros(b *testing.B) {
	data := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compress(nil, data, DefaultParams())
	}
}

func BenchmarkDecompress4K(b *testing.B) {
	data := bytes.Repeat([]byte("inline data reduction on primary storage "), 100)[:4096]
	blob, _ := Compress(nil, data, DefaultParams())
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubDecode4K compares the decode paths over one indexed 4-lane
// container: the retained serial decoder, the two-pass resolve + per-part
// decode + deferred patch-up (/indexed), and the in-order per-part decode
// on final history that defers nothing (/final) — all on one goroutine
// here — the per-part overhead is the interesting number; the wall-clock
// win from fanning parts out is measured by BenchmarkReadPathWallClock).
func BenchmarkSubDecode4K(b *testing.B) {
	data := benchChunk(0.5)
	res := CompressSubBlocks(data, DefaultSubBlockParams())
	blob, _ := PostProcess(nil, res)
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var out []byte
		for i := 0; i < b.N; i++ {
			var err error
			out, err = Decompress(out[:0], blob)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var lay SubLayout
		out := make([]byte, len(data))
		var deferred []DeferredCopy
		for i := 0; i < b.N; i++ {
			ok, err := ResolveSubBlocks(&lay, blob)
			if !ok || err != nil {
				b.Fatalf("resolve: ok=%v err=%v", ok, err)
			}
			deferred = deferred[:0]
			for p := range lay.Parts {
				var derr error
				deferred, _, derr = DecodeSubPart(out, &lay, p, deferred)
				if derr != nil {
					b.Fatal(derr)
				}
			}
			ResolveDeferred(out, deferred)
		}
	})
	b.Run("final", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var lay SubLayout
		out := make([]byte, len(data))
		for i := 0; i < b.N; i++ {
			ok, err := ResolveSubBlocks(&lay, blob)
			if !ok || err != nil {
				b.Fatalf("resolve: ok=%v err=%v", ok, err)
			}
			for p := range lay.Parts {
				if _, derr := DecodeSubPartFinal(out, &lay, p); derr != nil {
					b.Fatal(derr)
				}
			}
		}
	})
}

func BenchmarkSubBlocks4Lanes(b *testing.B) {
	data := benchChunk(0.5)
	p := DefaultSubBlockParams()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		CompressSubBlocks(data, p)
	}
}

func BenchmarkPostProcess(b *testing.B) {
	data := benchChunk(0.5)
	res := CompressSubBlocks(data, DefaultSubBlockParams())
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, err := PostProcessOrRaw(nil, data, res); err != nil {
			b.Fatal(err)
		}
	}
}
