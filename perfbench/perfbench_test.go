package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"afmm/internal/telemetry"
)

func TestGeneratorsDeterministicUnderSeed(t *testing.T) {
	for i := range Workloads {
		w := &Workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			digestOf := func(seed int64) uint64 {
				in, err := w.setup(seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				return in.digest()
			}
			a, b, c := digestOf(7), digestOf(7), digestOf(8)
			if a != b {
				t.Fatalf("seed 7 set up twice gave different states: %016x vs %016x", a, b)
			}
			if a == c {
				t.Fatalf("seeds 7 and 8 gave the same state %016x", a)
			}
		})
	}
	if !reflect.DeepEqual(sampleTargets(1000, 16, 3), sampleTargets(1000, 16, 3)) {
		t.Fatal("accuracy sample is not deterministic under its seed")
	}
}

func TestAnchorsFixTheRootCell(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in, err := newGravity(seed, 1, 2, 1.0/64, farS)
		if err != nil {
			t.Fatal(err)
		}
		root := in.solver.Tree.Nodes[0].Box
		if root.Center.Norm() > 1e-12 || root.Half < anchorR || root.Half > anchorR*(1+1e-8) {
			t.Fatalf("seed %d: root cell %+v is not the anchored cube", seed, root)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - 1 - i) // distinct values, unsorted
		}
		v, pct, ok := tail(xs)
		if n <= tailBeyond {
			if ok {
				t.Fatalf("n=%d: no percentile can have %d samples beyond it", n, tailBeyond)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("n=%d: tail %v has %d samples beyond it, want %d", n, v, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Fatalf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSelfTimeOnSyntheticSpanTree(t *testing.T) {
	spans := []span{
		{"solve", 0, 100},
		{"task.down", 10, 50}, // two concurrent workers
		{"task.down", 30, 80}, //
		{"task.near", 0, 60},  // the near-field root node
		{"near.gpu", 5, 55},   // inside task.near, overlapping task.down: not their child
		{"balance", 100, 120}, //
		{"tree.build", 105, 115},
		{"dmem.comm", 0, 500},  // aggregate: never a child, never a parent
		{"far.down", 200, 300}, // sequential sweep with its levels
		{"far.down.level", 200, 240},
		{"far.down.level", 240, 290},
	}
	want := []int64{
		100 - 80, // solve minus union of [10,80] and [0,60]
		40, 50,
		60 - 50, 50,
		20 - 10, 10,
		500,
		100 - 90, 40, 50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times\n got %v\nwant %v", got, want)
	}
	// A layer's summed self times equal its outer span when nothing of
	// another layer nests inside it.
	p := profile([]telemetry.StepRecord{{Spans: []telemetry.Span{
		{Kind: telemetry.SpanDownSweep, StartNs: 0, DurNs: 100},
		{Kind: telemetry.SpanDownLevel, StartNs: 0, DurNs: 60},
		{Kind: telemetry.SpanDownLevel, StartNs: 60, DurNs: 30},
	}}})
	if got := p.layerNs["core.down_ms"]; got != 100 {
		t.Fatalf("down-sweep layer time %d, want 100", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range bj.Workloads {
		names = append(names, w.Name)
		if i < len(Workloads) && Workloads[i].Why != w.Why {
			t.Errorf("workload %s: why differs from BENCHMARK.json", w.Name)
		}
	}
	var ours []string
	for _, w := range Workloads {
		ours = append(ours, w.Name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", ours, names)
	}
	check := func(kind string, got map[string]metric, listed []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		gotUnits := map[string]string{}
		for k, m := range got {
			gotUnits[k] = m.Unit
		}
		if !reflect.DeepEqual(gotUnits, want) {
			g, w := sortedKeys(gotUnits), sortedKeys(want)
			t.Errorf("%s metrics printed:\n %v\nBENCHMARK.json lists:\n %v\n(units %v vs %v)", kind, g, w, gotUnits, want)
		}
	}
	check("end_to_end", endToEndMetrics(1, 1, 1, 1, 1, 1, 1), bj.EndToEnd)
	b := &bench{w: &Workloads[0], workers: 1}
	check("per_layer", b.layerMetrics(profile(nil), nil, &loop{}, &loop{}), bj.PerLayer)
}

func TestCompareFlagsFingerprintMismatch(t *testing.T) {
	rec := func(workload string, nproc int, s int) savedRecord {
		return savedRecord{Workload: workload, Fingerprint: map[string]any{
			"nproc": nproc, "cpu_model": "x", "params": map[string]any{"s": s}}}
	}
	same := []savedRecord{rec("a", 2, 64), rec("a", 2, 64), rec("b", 2, 180)}
	if c := fingerprintClash(same); len(c) != 0 {
		t.Fatalf("same host and parameters flagged: %v", c)
	}
	if c := fingerprintClash(append(same, rec("a", 1, 64))); len(c) != 1 || !strings.HasPrefix(c[0], "nproc:") {
		t.Fatalf("nproc mismatch not flagged alone: %v", c)
	}
	if c := fingerprintClash(append(same, rec("b", 2, 64))); len(c) != 1 || !strings.HasPrefix(c[0], "b params:") {
		t.Fatalf("parameter mismatch not flagged alone: %v", c)
	}
}
