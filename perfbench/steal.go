package main

import (
	"bytes"
	"os"
	"sync"
	"syscall"
	"time"
)

// netWindow is the span over which throughput is taken: long enough that
// /proc/stat's 10 ms steal ticks resolve its steal to about 1%.
const netWindow = 500 * time.Millisecond

// netClock measures wall time net of hypervisor steal. On a shared virtual
// host the hypervisor deschedules vCPUs for stretches that vary from run to
// run by tens of percent; while the benchmark's threads want a vCPU they
// either run (process CPU time) or wait on a stolen one (steal). The
// fraction cpu/(cpu+steal) of an interval is the share it would have taken
// on unshared vCPUs, so timing metrics scale wall time by it. It is 1 when
// the host steals nothing. The process must be the guest's only busy one.
type netClock struct {
	wall       time.Time
	cpu, steal time.Duration
}

func startNet() netClock { return netClock{time.Now(), cpuTime(), stealTime()} }

// since returns the wall time since c and the unstolen share of it.
func (c netClock) since() (time.Duration, float64) {
	wall := time.Since(c.wall)
	cpu, steal := cpuTime()-c.cpu, stealTime()-c.steal
	if cpu <= 0 || steal <= 0 {
		return wall, 1
	}
	return wall, float64(cpu) / float64(cpu+steal)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat reads the first line of /proc/stat without allocating, so the
// per-call reads do not show in allocs_per_op.
var procStat struct {
	sync.Mutex
	f    *os.File
	err  error
	once sync.Once
	buf  [256]byte
}

// stealTime is the host's cumulative steal over all CPUs, from the first
// line of /proc/stat (in USER_HZ = 100 ticks); 0 where it is unavailable.
func stealTime() time.Duration {
	procStat.once.Do(func() { procStat.f, procStat.err = os.Open("/proc/stat") })
	if procStat.err != nil {
		return 0
	}
	procStat.Lock()
	defer procStat.Unlock()
	n, err := procStat.f.ReadAt(procStat.buf[:], 0)
	if n == 0 && err != nil {
		return 0
	}
	// "cpu  user nice system idle iowait irq softirq steal ...": field 8.
	line := procStat.buf[:n]
	if !bytes.HasPrefix(line, []byte("cpu ")) {
		return 0
	}
	field, ticks, in := 0, int64(0), false
	for _, c := range line {
		switch {
		case c >= '0' && c <= '9':
			if !in {
				field, in = field+1, true
			}
			if field == 8 {
				ticks = ticks*10 + int64(c-'0')
			}
		case c == '\n':
			return time.Duration(ticks) * 10 * time.Millisecond
		default:
			in = false
		}
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
