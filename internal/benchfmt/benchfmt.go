// Package benchfmt defines the BENCH_*.json trajectory format shared
// by its producer (crbench -bench -benchjson) and consumer (benchdiff,
// the CI regression gate), so the two cannot drift apart.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Result is the machine-readable record of one micro-benchmark.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PlanCache records the shared plan cache's counters over a benchmark
// run — the acceptance gauge for the prepared-statement engine:
// repeated parameterized workloads must be almost entirely cache hits.
type PlanCache struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// FlexCompile records the FlexRecs workflow-shape compile cache over a
// benchmark run: a hit means a workflow request skipped SQL
// re-rendering and statement lookup entirely.
type FlexCompile struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Matview records the materialized-view registry over a benchmark run:
// hits served a precomputed snapshot, stale hits served inside an async
// view's staleness bound while a refresh ran behind the read, and
// misses paid for a (single-flighted) build.
type Matview struct {
	Views         int    `json:"views"`
	Hits          uint64 `json:"hits"`
	StaleHits     uint64 `json:"stale_hits"`
	Misses        uint64 `json:"misses"`
	Refreshes     uint64 `json:"refreshes"`
	Invalidations uint64 `json:"invalidations"`
}

// Latency is one statement fingerprint's latency distribution as the
// query-level collector (internal/obs) measured it during the observed
// benchmark scenario: percentiles out of the lock-free log-bucketed
// histograms, recorded so the trajectory shows what observation itself
// measured, not just what it cost.
type Latency struct {
	SQL   string `json:"sql"`
	Route string `json:"route,omitempty"`
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// Report is the file-level JSON shape of one BENCH_*.json record.
// Sections that Report no longer declares are ignored on Load, so older
// records that still carry them keep decoding.
type Report struct {
	Scale       string       `json:"scale"`
	GoVersion   string       `json:"go_version"`
	Benchmarks  []Result     `json:"benchmarks"`
	PlanCache   *PlanCache   `json:"plan_cache,omitempty"`
	FlexCompile *FlexCompile `json:"flex_compile,omitempty"`
	Matview     *Matview     `json:"matview,omitempty"`
	Latency     []Latency    `json:"latency,omitempty"`
}

// Load reads and decodes one trajectory file.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
