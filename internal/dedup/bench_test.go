package dedup

import (
	"testing"

	"inlinered/internal/parallel"
)

func BenchmarkSum4K(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}

// BenchmarkSumBatch fingerprints a 1024×4 KB batch dispatched through a
// persistent parallel.Pool by a reused BatchHasher — the engine's actual hash stage. allocs/op is the
// regression guard for the zero-alloc dispatch.
func BenchmarkSumBatch(b *testing.B) {
	chunks := make([][]byte, 1024)
	for i := range chunks {
		chunks[i] = make([]byte, 4096)
		chunks[i][0] = byte(i)
	}
	pool := parallel.New(8)
	defer pool.Close()
	h := NewBatchHasher(pool)
	var fps []Fingerprint
	b.SetBytes(int64(len(chunks)) * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fps = h.SumInto(fps, chunks)
	}
}

func BenchmarkBinIndexLookupHit(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	const n = 1 << 18
	fps := make([]Fingerprint, n)
	for i := range fps {
		fps[i] = fpFor(i)
		x.Insert(fps[i], Entry{Loc: int64(i)})
	}
	x.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := x.Lookup(fps[i%n]); !p.Found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBinIndexLookupMiss(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	const n = 1 << 18
	for i := 0; i < n; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
	x.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := x.Lookup(fpFor(n + i)); p.Found {
			b.Fatal("false hit")
		}
	}
}

func BenchmarkBinIndexInsert(b *testing.B) {
	x, _ := NewBinIndex(DefaultIndexConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Insert(fpFor(i), Entry{Loc: int64(i)})
	}
}

func BenchmarkLockedMapLookupOrInsert(b *testing.B) {
	m := NewLockedMap()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.LookupOrInsert(fpFor(i%100000), Entry{Loc: int64(i)})
			i++
		}
	})
}

func BenchmarkParallelIndexer8Workers(b *testing.B) {
	fps := make([]Fingerprint, 1<<16)
	for i := range fps {
		fps[i] = fpFor(i % (1 << 14))
	}
	b.SetBytes(int64(len(fps)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x, _ := NewBinIndex(DefaultIndexConfig())
		pi := NewParallelIndexer(x, 8)
		b.StartTimer()
		pi.Process(fps, func(i int) Entry { return Entry{Loc: int64(i)} })
	}
}
