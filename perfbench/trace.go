package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxSpans bounds the spans kept for the Chrome trace file. Layer timings
// keep accumulating past it; only the per-span records stop.
const maxSpans = 200_000

// span is one timed interval of the traced run: a call into a layer's
// public function, made from the benchmark's own code.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 for a root
	req        int64         // entry-point call (batch) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer still
// times: begin/end return wall times, so untraced replays share the code.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span and returns its id (-1 when not recorded) and start.
func (t *tracer) begin(name string, parent int32, req int64) (int32, time.Time) {
	now := time.Now()
	if t == nil {
		return -1, now
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1, now
	}
	t.spans = append(t.spans, span{name: name, start: now.Sub(t.t0), parent: parent, req: req})
	return int32(len(t.spans) - 1), now
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32, start time.Time) time.Duration {
	now := time.Now()
	if t != nil && id >= 0 {
		t.spans[id].end = now.Sub(t.t0)
	}
	return now.Sub(start)
}

// writeChrome writes the spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing), with the per-layer summary and the run's
// envelope under otherData.
func (t *tracer) writeChrome(path string, summary map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	depth := make([]int, len(t.spans))
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		ev := event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: depth[i],
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	summary["spans"] = len(t.spans)
	summary["spans_dropped"] = t.dropped
	other, err := json.Marshal(summary)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, `],"otherData":%s}`, other)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// nsPerMB is a layer's speed: nanoseconds spent per MiB it processed.
func nsPerMB(d time.Duration, bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	return float64(d) / (float64(bytes) / (1 << 20))
}

// simKIOPS is thousands of 4 KiB ops per virtual second over calls of
// opsPerCall ops whose reports took the given virtual times.
func simKIOPS(opsPerCall int, elapsed []time.Duration) float64 {
	var virt time.Duration
	for _, e := range elapsed {
		virt += e
	}
	return float64(opsPerCall*len(elapsed)) / virt.Seconds() / 1e3
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the slowest part's time over the mean part's time: 1 when
// parallel parts finish together.
func imbalance(parts []time.Duration) float64 {
	var max, sum time.Duration
	n := 0
	for _, p := range parts {
		if p > max {
			max = p
		}
		sum += p
		n++
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(n) / float64(sum)
}
