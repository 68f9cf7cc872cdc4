package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-check compares
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSelfCheck runs every workload briefly at tiny size, untraced and
// traced, and requires each metric BENCHMARK.json names to be emitted with
// its unit, the outputs to verify, and the traced run to write a Chrome
// trace. At least 30 calls per run (6 per traced phase) let the tiny oltp
// cleaner reclaim a segment, which its check requires, on any host speed.
// Run it with: cd perfbench && go test .
func TestSelfCheck(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := runConfig{
				workload: w, seed: 7, seconds: 300 * time.Millisecond, trace: traced,
				tiny: true, minCalls: 30, setups: 2, traceDir: dir, commit: "test",
			}
			res, err := run(cfg, bufio.NewWriter(io.Discard))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, w+"-seed7.trace.json"))
			if err != nil {
				t.Fatalf("%s: trace file: %v", w, err)
			}
			var tr struct {
				TraceEvents []map[string]any `json:"traceEvents"`
				OtherData   map[string]any   `json:"otherData"`
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("%s: trace file does not parse: %v", w, err)
			}
			if len(tr.TraceEvents) == 0 || tr.OtherData["per_layer"] == nil {
				t.Errorf("%s: trace has %d events and per_layer=%v", w, len(tr.TraceEvents), tr.OtherData["per_layer"] != nil)
			}
		}
	}
}
