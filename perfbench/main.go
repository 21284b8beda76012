// Command perfbench is the repository's benchmark: it runs one named AFMM
// workload through the public drivers (sim.RunGravity, sim.RunStokes,
// dmem.Solver.RunWith), checks the outputs against direct summation and
// for determinism, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run repeats the workload with an in-memory telemetry recorder attached
// and reports the per-layer set instead. See README.md for the workloads,
// the metric definitions and which layer metric should move which
// end-to-end metric.
//
// Usage:
//
//	perfbench --workload grav-farfield --seed 1 --seconds 20 --trace 0
//	perfbench compare <base-results-dir> <new-results-dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"afmm/internal/telemetry"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 21

// accuracyTargets is the size of the seeded direct-sum sample.
const accuracyTargets = 4096

// accuracyGate is the largest RMS relative error against direct summation
// a run may show before it counts as failed. At P=4 it measures 5e-4 to
// 9e-3 on these workloads and moves with the tree's geometry; broken
// numerics show errors of order 1.
const accuracyGate = 0.1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed: generates the bodies and the accuracy sample")
	seconds := flag.Float64("seconds", 20, "nominal measured seconds; sizes the step count")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"),
		"directory for result records, traces and the determinism ledger")
	root := flag.String("root", ".", "repository root (source fingerprint)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, out: *out, workers: runtime.NumCPU()}
	b.fp = fingerprint(*root, w, *seed, b.workers)
	var res result
	if *trace != 0 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.record(res, *trace != 0)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation's state.
type bench struct {
	w       *Workload
	seed    int64
	seconds float64
	out     string
	workers int
	fp      map[string]any
	notes   []string
	failed  int
	extra   map[string]any
}

// fail counts n failed operations (none when n <= 0) and reports why.
func (b *bench) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed += n
	msg := fmt.Sprintf(format, args...)
	b.notes = append(b.notes, "FAIL "+msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
}

// loop is one measured run of the step loop.
type loop struct {
	out   runOut
	walls []float64 // per-step host wall between callbacks (s)
	bad   int       // steps with non-finite output
	heaps []float64 // per-step peak live heap (bytes)
	mem0  runtime.MemStats
	mem1  runtime.MemStats
	start time.Time
}

// loopWall is the summed per-step wall (the benchmark's own callback work
// excluded).
func (l *loop) loopWall() float64 { return sum(l.walls) }

// setupOnce builds the workload and returns it with its set-up seconds.
func (b *bench) setupOnce() (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := b.w.setup(b.seed, b.workers)
	return inst, time.Since(t0).Seconds(), err
}

// setups builds the workload setupReps times, checks that every set-up
// produced the same state, and returns the last one with the median time.
func (b *bench) setups() (instance, []float64, error) {
	var times []float64
	var inst instance
	var first uint64
	for i := 0; i < setupReps; i++ {
		in, t, err := b.setupOnce()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		d := in.digest()
		if i == 0 {
			first = d
		} else if d != first {
			b.fail(1, "set-up %d produced a different initial state (%016x vs %016x)", i, d, first)
		}
		inst = in
	}
	return inst, times, nil
}

// runLoop steps inst through the public driver, timing each step between
// consecutive step callbacks and sampling the live heap.
func (b *bench) runLoop(inst instance, steps int, rec *telemetry.Recorder) *loop {
	l := &loop{}
	inst.attach(rec)
	runtime.GC()
	heap := startHeapSampler()
	runtime.ReadMemStats(&l.mem0)
	last := time.Now()
	l.start = last
	hook := stepHook{
		begin: func() {
			now := time.Now()
			l.walls = append(l.walls, now.Sub(last).Seconds())
			l.heaps = append(l.heaps, float64(heap.stepPeak()))
		},
		end: func(finite bool) {
			if !finite {
				l.bad++
			}
			last = time.Now()
		},
	}
	l.out = inst.run(steps, rec, hook)
	runtime.ReadMemStats(&l.mem1)
	heap.stop()
	inst.attach(nil)
	return l
}

// checkLoop counts a loop's failed steps: recovered, non-finite, or never
// completed.
func (b *bench) checkLoop(l *loop, steps int) {
	b.fail(l.out.Recoveries, "%d steps needed a recovery", l.out.Recoveries)
	b.fail(l.bad, "%d steps produced non-finite output", l.bad)
	missing := steps - min(len(l.walls), len(l.out.Virt))
	b.fail(missing, "ran %d of %d steps (%d virtual records): %v", len(l.walls), steps, len(l.out.Virt), l.out.Err)
	if missing <= 0 && l.out.Err != nil {
		b.fail(1, "run error: %v", l.out.Err)
	}
}

// accuracy runs the final correctness gate: a fresh solve on the final
// positions against a seeded direct-sum sample, plus a non-finite scan.
func (b *bench) accuracy(inst instance) float64 {
	targets := sampleTargets(inst.bodies(), accuracyTargets, b.seed^0x5eed)
	e, finite := inst.accuracy(targets)
	if !finite {
		b.fail(1, "accuracy solve produced non-finite output")
	}
	if !(e <= accuracyGate) {
		b.fail(1, "acc_rel_err %.3e breaches the gate %.0e", e, accuracyGate)
	}
	return e
}

func (b *bench) untraced() (result, error) {
	steps := b.w.stepsFor(b.seconds)
	inst, setupTimes, err := b.setups()
	if err != nil {
		return result{}, err
	}
	setupS := median(setupTimes)
	l := b.runLoop(inst, steps, nil)
	b.checkLoop(l, steps)
	accErr := b.accuracy(inst)

	n := float64(inst.bodies())
	tv, pct, ok := tail(l.walls)
	if !ok {
		b.fail(1, "only %d step samples: no percentile has %d beyond it", len(l.walls), tailBeyond)
		tv = median(l.walls)
	}
	m := endToEndMetrics(setupS, n*float64(len(l.walls))/l.loopWall(), median(l.walls), tv,
		mean(l.out.Virt), accErr, median(l.heaps))
	attempted := steps + 1
	b.extra = map[string]any{
		"steps": steps, "tail_percentile": pct, "tail_samples": len(l.walls),
		"step_walls_s": l.walls, "s_trajectory": l.out.S, "virt_s": l.out.Virt,
		"step_peak_heap_bytes": l.heaps, "setup_s": setupTimes,
	}
	fmt.Printf("perfbench %s seed=%d steps=%d workers=%d (untraced)\n", b.w.Name, b.seed, steps, b.workers)
	b.ledger(steps, l.out.trajectoryDigest())
	printMetric("setup_s", m["setup_s"], fmt.Sprintf("median of %d set-ups", setupReps))
	printMetric("body_steps_per_s", m["body_steps_per_s"], fmt.Sprintf("N=%d x %d steps / %.3f s loop wall", inst.bodies(), len(l.walls), l.loopWall()))
	printMetric("step_wall_p50_s", m["step_wall_p50_s"], fmt.Sprintf("%d samples", len(l.walls)))
	printMetric("step_wall_tail_s", m["step_wall_tail_s"], fmt.Sprintf("p%.1f of %d samples, %d beyond", pct, len(l.walls), tailBeyond))
	printMetric("virt_step_s", m["virt_step_s"], "mean virtual Total per step")
	if len(l.out.LB) > 0 {
		lbPct := 100 * sum(l.out.LB) / sum(l.out.Compute)
		printMetric("lb_pct", metric{lbPct, "%"}, "total LB / total compute (Table II); per-layer balance.lb_pct")
	}
	printMetric("acc_rel_err", m["acc_rel_err"], fmt.Sprintf("RMS over %d sampled targets, gate %.0e", accuracyTargets, accuracyGate))
	printMetric("peak_heap_bytes", m["peak_heap_bytes"], "median over steps of the per-step peak /gc/heap/live:bytes")
	failed := min(b.failed, attempted)
	printMetric("failed_frac", metric{float64(failed) / float64(attempted), "1"}, fmt.Sprintf("%d of %d attempted (steps + accuracy gate)", failed, attempted))
	return result{Correct: b.failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// endToEndMetrics names and units the end-to-end set (BENCHMARK.json
// end_to_end, in that order).
func endToEndMetrics(setupS, bodyStepsPerS, p50, tailS, virt, accErr, heap float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"body_steps_per_s": {bodyStepsPerS, "body-steps/s"},
		"step_wall_p50_s":  {p50, "s"},
		"step_wall_tail_s": {tailS, "s"},
		"virt_step_s":      {virt, "s"},
		"acc_rel_err":      {accErr, "1"},
		"peak_heap_bytes":  {heap, "bytes"},
	}
}

func printMetric(name string, m metric, note string) {
	fmt.Printf("  %-28s %14.6g %-14s %s\n", name, m.Value, m.Unit, note)
}

// ledger checks the run's virtual trajectory against earlier runs of the
// same workload, seed, step count and source tree, recorded in the output
// directory, and records it when it is the first.
func (b *bench) ledger(steps int, d uint64) {
	path := filepath.Join(b.out, "determinism.json")
	book := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &book)
	}
	key := fmt.Sprintf("%s|seed=%d|steps=%d|src=%v", b.w.Name, b.seed, steps, b.fp["source_hash"])
	got := fmt.Sprintf("%016x", d)
	if prev, ok := book[key]; ok {
		if prev != got {
			b.fail(1, "virtual trajectory %s differs from an earlier run of the same seed (%s)", got, prev)
		} else {
			b.notes = append(b.notes, "determinism: matches an earlier run of this seed")
			fmt.Printf("  determinism: trajectory %s matches an earlier run of this seed\n", got)
		}
		return
	}
	fmt.Printf("  determinism: first run of this seed, trajectory %s recorded\n", got)
	book[key] = got
	raw, _ := json.MarshalIndent(book, "", "  ")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err == nil {
		_ = os.Rename(tmp, path)
	}
}

// record writes the run's full result (fingerprint, metrics, notes) into
// the results directory for later comparison.
func (b *bench) record(res result, traced bool) {
	dir := filepath.Join(b.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	rec := map[string]any{
		"workload": b.w.Name, "seed": b.seed, "traced": traced,
		"fingerprint": b.fp, "result": res, "notes": b.notes, "detail": b.extra,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%d.json", b.w.Name, mode, b.seed, time.Now().UnixNano())
	_ = os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
