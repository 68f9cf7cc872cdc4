package ssd

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"inlinered/internal/fault"
)

// ftlGolden pins everything the FTL exposes after a fixed op sequence.
type ftlGolden struct {
	stats    Stats
	maxErase int
	horizon  time.Duration
	opsHash  uint64 // FNV-64a over every op's completion time and outcome
}

// driveFTL runs a seeded mix of random overwrites (1–3 pages), trims, and
// reads against smallConfig(), with arrivals advancing in virtual time, and
// returns the drive's observable state. The drive is small enough that the
// sequence forces many GC passes.
func driveFTL(fi *fault.Injector) ftlGolden {
	d := New(smallConfig())
	d.SetFaultInjector(fi)
	logical := d.LogicalPages()
	rng := rand.New(rand.NewSource(12))
	h := fnv.New64a()
	var buf [9]byte
	var at time.Duration
	for i := 0; i < 6000; i++ {
		at += time.Duration(rng.Intn(50)) * time.Microsecond
		lpn := rng.Int63n(logical)
		var end time.Duration
		var err error
		switch r := rng.Intn(20); {
		case r < 3:
			n := 1 + rng.Intn(3)
			if lpn+int64(n) > logical {
				n = int(logical - lpn)
			}
			d.Trim(lpn, n)
			end = at
		case r < 6:
			end, err = d.Read(at, lpn, 1+rng.Intn(2))
		default:
			n := 1 + rng.Intn(3)
			if lpn+int64(n) > logical {
				n = int(logical - lpn)
			}
			end, err = d.Write(at, lpn, n)
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(end))
		buf[8] = 0
		if err != nil {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	return ftlGolden{d.Stats(), d.MaxErase(), d.Horizon(), h.Sum64()}
}

// TestFTLGolden pins the FTL's observable behaviour — stats, wear, channel
// horizon, and every op's completion time — to fixed values, so any change
// to free-list order, victim choice, GC, or channel timing shows up here.
// Regenerate the values only for an intended change to the drive model.
func TestFTLGolden(t *testing.T) {
	cases := []struct {
		name string
		fi   *fault.Injector
		want ftlGolden
	}{
		{
			name: "clean",
			want: ftlGolden{
				stats: Stats{HostWritePages: 8422, HostReadPages: 1331, NANDWritePages: 17254, NANDReadPages: 10163,
					Erases: 2267, GCRuns: 1026, TrimmedPages: 1415},
				maxErase: 92,
				horizon:  3439713000,
				opsHash:  0x2c8ed0bf46e4d841,
			},
		},
		{
			name: "faults",
			fi: fault.New(fault.Config{
				Seed:         7,
				Rates:        fault.Rates{SSDWriteTransient: 0.05, SSDWritePermanent: 0.01, SSDReadTransient: 0.05, SSDLatencySpike: 0.05},
				SpikeLatency: 300 * time.Microsecond,
			}),
			want: ftlGolden{
				stats: Stats{HostWritePages: 7924, HostReadPages: 1284, NANDWritePages: 15957, NANDReadPages: 9317,
					Erases: 2102, GCRuns: 964, TrimmedPages: 1401, WriteFaults: 248, ReadFaults: 31, LatencySpikes: 217},
				maxErase: 85,
				horizon:  3277093000,
				opsHash:  0x5e0ad004cf6d9f66,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := driveFTL(c.fi)
			if got.stats.GCRuns < 5 {
				t.Fatalf("sequence must exercise GC at least 5 times, got %d", got.stats.GCRuns)
			}
			if got != c.want {
				t.Errorf("FTL drifted:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}
