package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The result line must carry exactly the metrics BENCHMARK.json lists,
// in each mode, under the same units the program prints.
func TestBenchmarkJSONListsTheResultLineMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []struct{ Name string }, printed []string) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(listed), len(printed))
			return
		}
		for i := range listed {
			if listed[i].Name != printed[i] {
				t.Errorf("%s %d: BENCHMARK.json lists %q, the program prints %q", what, i, listed[i].Name, printed[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json lists %q, the program has %q", i, w.Name, names[i])
		}
	}
}
