package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contractPath is BENCHMARK.json as seen from the repository root, where
// the benchmark is run from.
const contractPath = "BENCHMARK.json"

// contract is BENCHMARK.json: the one place that lists the workloads, the
// metrics of the machine-readable line and the share by which each
// end-to-end metric may get worse. The program reads it instead of keeping
// a copy, and the smoke test holds what the program emits to it.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run the benchmark from the repository root)", err)
	}
	c := &contract{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
