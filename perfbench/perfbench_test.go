package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// tinySizes keep every workload to a fraction of a second; ingest still
// pushes past one refit so replication runs.
var tinySizes = sizes{queries: 128, chunks: 80, setupReps: 2, sapDataset: "Iris"}

// applies lists, per workload, the per-layer metrics its traced run must
// measure (non-zero). Metrics of layers a workload bypasses report 0.
var applies = map[string][]string{
	"serve-b1":         serveLayers,
	"serve-b64":        serveLayers,
	"ingest-replicate": append(append([]string(nil), serveLayers...), "classify.refits", "cluster.sync_lag_ms", "cluster.installs_per_swap", "cluster.sync_frame_bytes"),
	"sap-round":        append(append([]string(nil), commonLayers...), "protocol.sap_exchange_ms", "protocol.sap_bytes", "privacy.optimize_ms", "perturb.apply_ms"),
}

var commonLayers = []string{"transport.seal_us", "transport.open_us", "transport.send_us", "transport.req_frame_bytes",
	"transport.bytes_per_record", "proc.cpu_busy_ratio", "proc.alloc_kb_per_op"}

var serveLayers = append(append([]string(nil), commonLayers...), "transport.resp_frame_bytes",
	"protocol.client_encode_us", "protocol.client_decode_us", "protocol.service_self_us", "protocol.rtt_residual_us",
	"protocol.rtt_residual_share", "protocol.frame_decode_us", "protocol.frame_decode_allocs",
	"classify.predict_us", "classify.fit_ms", "classify.model_bytes", "classify.model_encode_ms", "classify.model_decode_ms")

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that nothing fails and every metric that applies is reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				res, err := run(options{workload: w.name, seed: 3, seconds: 0.4, trace: trace, traceDir: t.TempDir(), sz: tinySizes}, &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out.String())
				}
				names := endToEnd
				if trace {
					names = perLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(names))
				}
				for _, m := range names {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace {
					for _, name := range applies[w.name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("per-layer metric %s = %v, want > 0\n%s", name, res.Metrics[name].Value, out.String())
						}
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json declares exactly the workloads and
// metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
