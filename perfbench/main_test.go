package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, measured []metricSpec) {
		if len(declared) != len(measured) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark measures %d", kind, len(declared), len(measured))
			return
		}
		for i, d := range declared {
			if d.Name != measured[i].name || d.Unit != measured[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json declares %s [%s], the benchmark measures %s [%s]",
					kind, i, d.Name, d.Unit, measured[i].name, measured[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
