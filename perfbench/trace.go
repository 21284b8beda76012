package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"afmm/internal/costmodel"
	"afmm/internal/telemetry"
)

// span is one timed interval of a trace, in nanoseconds on one clock.
type span struct {
	name       string
	start, end int64
}

// nestsIn names, for each span kind, the kinds it can nest inside. A
// span's parent is the innermost enclosing span of one of those kinds;
// kinds not listed nest inside a solve or a dmem node, and spans with no
// enclosing parent are roots of their step. Parents are restricted by
// kind because concurrent spans of the task graph overlap in time without
// nesting.
var nestsIn = map[string][]string{
	"solve":             nil,
	"dmem.node":         nil,
	"balance":           nil,
	"integrate":         nil,
	"forces":            nil,
	"tree.refill":       nil,
	"ckpt.save":         nil,
	"ckpt.restore":      nil,
	"ckpt.wait":         nil,
	"far.up.level":      {"far.up"},
	"far.down.level":    {"far.down"},
	"near.gpu":          {"near.exec", "task.near"},
	"near.fallback":     {"near.exec", "task.near"},
	"near.exec":         {"task.near", "solve", "dmem.node"},
	"balance.predict":   {"balance"},
	"balance.finegrain": {"balance"},
	"tree.build":        {"balance", "solve"},
	"tree.enforceS":     {"balance", "solve"},
}

// aggregateKinds are summed durations rather than real intervals (the
// dmem comm span totals a node's blocked time), so they never count as a
// parent's child.
var aggregateKinds = map[string]bool{"dmem.comm": true}

func parentKinds(name string) []string {
	if ks, ok := nestsIn[name]; ok {
		return ks
	}
	return []string{"solve", "dmem.node"}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (the union of their intervals).
func selfTimes(spans []span) []int64 {
	byName := map[string][]int{}
	for i, s := range spans {
		byName[s.name] = append(byName[s.name], i)
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if aggregateKinds[s.name] {
			continue
		}
		best := -1
		for _, pk := range parentKinds(s.name) {
			for _, j := range byName[pk] {
				p := spans[j]
				if j == i || p.start > s.start || p.end < s.end {
					continue
				}
				if best < 0 || p.end-p.start < spans[best].end-spans[best].start {
					best = j
				}
			}
		}
		if best >= 0 {
			children[best] = append(children[best], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v[0], v[1], true
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layers maps a per-layer time metric to the span kinds whose self times
// it sums. Self times of nested spans of the same layer add up to the
// layer's outer span, so each metric is the layer's own time with other
// layers' nested work taken out.
var layers = []struct {
	metric string
	kinds  []string
}{
	{"octree.lists_ms", []string{"list.full", "list.repair", "list.skip"}},
	{"octree.refill_ms", []string{"tree.refill"}},
	{"expansion.m2l_table_ms", []string{"kernels.m2ltable"}},
	{"core.up_ms", []string{"far.up", "far.up.level", "task.up"}},
	{"core.down_ms", []string{"far.down", "far.down.level", "task.down"}},
	{"core.near_ms", []string{"near.cpu", "near.exec", "near.gpu", "near.fallback", "task.near"}},
	{"core.l2p_ms", []string{"far.l2p", "task.l2p"}},
	{"core.vm_ms", []string{"vm.graph", "vm.sim", "vm.observe"}},
	{"balance.ms", []string{"balance", "balance.predict", "balance.finegrain", "tree.build", "tree.enforceS"}},
	{"sim.integrate_ms", []string{"integrate"}},
	{"stokes.forces_ms", []string{"forces"}},
	{"dmem.node_ms", []string{"dmem.node"}},
	{"dmem.comm_wait_ms", []string{"dmem.comm"}},
}

// stepSpans converts a recorded step into spans on the step's clock.
func stepSpans(r *telemetry.StepRecord) []span {
	out := make([]span, len(r.Spans))
	for i, s := range r.Spans {
		out[i] = span{name: s.Kind.String(), start: s.StartNs, end: s.StartNs + s.DurNs}
	}
	return out
}

// traceProfile is the per-layer breakdown of a traced run.
type traceProfile struct {
	steps      int
	selfByKind map[string]int64 // summed self time per span kind (ns)
	totByKind  map[string]int64 // summed duration per span kind (ns)
	layerNs    map[string]int64 // summed self time per layer metric (ns)
	nodeMaxNs  int64            // summed per-step max dmem.node duration
}

func profile(recs []telemetry.StepRecord) traceProfile {
	p := traceProfile{steps: len(recs), selfByKind: map[string]int64{}, totByKind: map[string]int64{}, layerNs: map[string]int64{}}
	kindLayer := map[string]string{}
	for _, l := range layers {
		for _, k := range l.kinds {
			kindLayer[k] = l.metric
		}
	}
	for i := range recs {
		sp := stepSpans(&recs[i])
		self := selfTimes(sp)
		var nodeMax int64
		for j, s := range sp {
			p.selfByKind[s.name] += self[j]
			p.totByKind[s.name] += s.end - s.start
			if m, ok := kindLayer[s.name]; ok {
				p.layerNs[m] += self[j]
			}
			if s.name == "dmem.node" && s.end-s.start > nodeMax {
				nodeMax = s.end - s.start
			}
		}
		p.nodeMaxNs += nodeMax
	}
	return p
}

// perStepMs is a summed nanosecond total as milliseconds per step.
func (p traceProfile) perStepMs(ns int64) float64 {
	if p.steps == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(p.steps)
}

// dominant returns the layer with the largest summed self time. Layers
// of aggregate spans are left out: their sums count concurrent waits.
func (p traceProfile) dominant() string {
	best, bestNs := "", int64(-1)
	for _, l := range layers {
		if aggregateKinds[l.kinds[0]] {
			continue
		}
		if ns := p.layerNs[l.metric]; ns > bestNs {
			best, bestNs = l.metric, ns
		}
	}
	return best
}

// traced runs the workload twice on fresh set-ups of the same seed: once
// untraced (runtime allocation and GC per step, and the reference for the
// tracing overhead) and once with an in-memory recorder attached (the
// per-layer breakdown). Both runs must reproduce the same virtual
// trajectory.
func (b *bench) traced() (result, error) {
	steps := (b.w.stepsFor(b.seconds) + 1) / 2
	if steps < 4 {
		steps = 4
	}
	plainInst, _, err := b.setupOnce()
	if err != nil {
		return result{}, err
	}
	plain := b.runLoop(plainInst, steps, nil)
	b.checkLoop(plain, steps)
	plainInst = nil // let the traced run's heap start clean

	setupStart := time.Now()
	inst, setupS, err := b.setupOnce()
	if err != nil {
		return result{}, err
	}
	rec := telemetry.New(telemetry.Options{Keep: true, SpanCap: 4096})
	tl := b.runLoop(inst, steps, rec)
	b.checkLoop(tl, steps)
	accStart := time.Now()
	accErr := b.accuracy(inst)
	accDur := time.Since(accStart)

	dPlain, dTraced := plain.out.trajectoryDigest(), tl.out.trajectoryDigest()
	if dPlain != dTraced {
		b.fail(1, "traced and untraced runs of seed %d diverged (virtual trajectory %016x vs %016x)", b.seed, dTraced, dPlain)
	}

	recs := rec.Steps()
	if len(recs) > steps {
		recs = recs[:steps]
	}
	p := profile(recs)
	m := b.layerMetrics(p, recs, plain, tl)

	// The benchmark's own spans: set-up, each step (between consecutive
	// step callbacks) and the accuracy solve, on the run's wall clock.
	own := []map[string]any{{"name": "bench.setup", "start_ns": int64(0), "dur_ns": int64(setupS * 1e9)}}
	t := tl.start.Sub(setupStart).Nanoseconds()
	for i, w := range tl.walls {
		own = append(own, map[string]any{"name": "bench.step", "step": i, "start_ns": t, "dur_ns": int64(w * 1e9)})
		t += int64(w * 1e9)
	}
	own = append(own, map[string]any{"name": "bench.accuracy", "start_ns": accStart.Sub(setupStart).Nanoseconds(), "dur_ns": accDur.Nanoseconds()})
	selfMs := map[string]float64{}
	for k, v := range p.selfByKind {
		selfMs[k] = p.perStepMs(v)
	}
	b.extra = map[string]any{"steps": steps, "bench_spans": own, "self_ms_per_step": selfMs,
		"dominant": p.dominant(), "expected_dominant": b.w.Dominant, "acc_rel_err": accErr}
	b.writeChrome(rec)

	fmt.Printf("perfbench %s seed=%d steps=%d workers=%d (traced)\n", b.w.Name, b.seed, steps, b.workers)
	if dPlain == dTraced {
		fmt.Printf("  determinism: untraced and traced runs agree, trajectory %016x\n", dTraced)
	}
	b.ledger(steps, dTraced)
	fmt.Printf("  self time per step by span kind (ms; task spans sum over workers):\n")
	kinds := sortedKeys(p.selfByKind)
	sort.SliceStable(kinds, func(i, j int) bool { return p.selfByKind[kinds[i]] > p.selfByKind[kinds[j]] })
	for _, k := range kinds {
		fmt.Printf("    %-20s self %10.3f   total %10.3f\n", k, p.perStepMs(p.selfByKind[k]), p.perStepMs(p.totByKind[k]))
	}
	verdict := "ok"
	if p.dominant() != b.w.Dominant {
		verdict = "DIFFERS"
	}
	fmt.Printf("  dominant layer: %s (expected %s) %s\n", p.dominant(), b.w.Dominant, verdict)
	for _, name := range sortedKeys(m) {
		printMetric(name, m[name], "")
	}
	attempted := 2*steps + 1
	failed := min(b.failed, attempted)
	return result{Correct: b.failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metric set from the traced profile,
// the step records and the two loops.
func (b *bench) layerMetrics(p traceProfile, recs []telemetry.StepRecord, plain, tl *loop) map[string]metric {
	m := map[string]metric{}
	ms := func(name string) { m[name] = metric{p.perStepMs(p.layerNs[name]), "ms"} }
	for _, l := range layers {
		ms(l.metric)
	}
	delete(m, "dmem.node_ms")
	m["dmem.node_ms_max"] = metric{p.perStepMs(p.nodeMaxNs), "ms"}

	steps := float64(len(recs))
	perStep := func(v float64) float64 {
		if steps == 0 {
			return 0
		}
		return v / steps
	}
	var full, repair, skip, rebuilds, sChanges int
	var cpu, gpu, cpuEff, gpuEff, busy, critNs, spanNs, solveWall float64
	for i := range recs {
		r := &recs[i]
		full += r.Lists.Full
		repair += r.Lists.Repairs
		skip += r.Lists.Skips
		cpu += r.CPU
		gpu += r.GPU
		cpuEff += r.CPUEff
		gpuEff += r.GPUEff
		busy += poolBusyNs(r)
		critNs += float64(r.TaskCriticalNs)
		spanNs += float64(r.TaskMakespanNs)
		for _, s := range r.Spans {
			switch s.Kind.String() {
			case "tree.build":
				rebuilds++
			case "solve":
				solveWall += float64(s.DurNs)
			}
		}
		for _, e := range r.Events {
			if e.Kind == telemetry.EventSChange {
				sChanges++
			}
		}
	}
	solveMs := p.perStepMs(p.totByKind["solve"])
	if b.w.Name == "stokes-rings" {
		m["core.solve_ms"], m["stokes.solve_ms"] = metric{0, "ms"}, metric{solveMs, "ms"}
	} else {
		m["core.solve_ms"], m["stokes.solve_ms"] = metric{solveMs, "ms"}, metric{0, "ms"}
	}
	m["octree.list_full"] = metric{float64(full), "count"}
	m["octree.list_repair"] = metric{float64(repair), "count"}
	m["octree.list_skip"] = metric{float64(skip), "count"}
	m["octree.rebuilds"] = metric{float64(rebuilds), "count"}

	var m2l, p2p float64
	for _, c := range tl.out.Counts {
		m2l += float64(c[costmodel.M2L])
		p2p += float64(c[costmodel.P2P])
	}
	m2l, p2p = perStep(m2l), perStep(p2p)
	m["expansion.m2l_pairs"] = metric{m2l, "count"}
	m["expansion.m2l_ns_per_pair"] = metric{ratio(m["core.down_ms"].Value*1e6, m2l), "ns"}
	m["kernels.p2p_pairs"] = metric{p2p, "count"}
	m["kernels.p2p_ns_per_pair"] = metric{ratio(m["core.near_ms"].Value*1e6, p2p), "ns"}

	workers := float64(b.workers)
	if b.w.Name == "stokes-rings" {
		workers = 1
	}
	m["sched.busy_frac"] = metric{ratio(busy, workers*solveWall), "1"}
	crit := 1.0
	if spanNs > 0 {
		crit = critNs / spanNs
	}
	m["sched.critical_path_frac"] = metric{crit, "1"}
	m["vgpu.gpu_virt_s"] = metric{perStep(gpu), "s"}
	m["vgpu.slot_eff"] = metric{perStep(gpuEff), "1"}
	m["vcpu.cpu_virt_s"] = metric{perStep(cpu), "s"}
	m["vcpu.cpu_eff"] = metric{perStep(cpuEff), "1"}
	m["balance.s_changes"] = metric{float64(sChanges), "count"}
	finalS := 0.0
	if n := len(tl.out.S); n > 0 {
		finalS = float64(tl.out.S[n-1])
	}
	m["balance.final_s"] = metric{finalS, "count"}
	m["balance.lb_pct"] = metric{ratio(100*sum(tl.out.LB), sum(tl.out.Compute)), "%"}

	var bytes, msgs, frames float64
	for i := range tl.out.Bytes {
		bytes += float64(tl.out.Bytes[i])
		msgs += float64(tl.out.Msgs[i])
		frames += float64(tl.out.Frames[i])
	}
	m["dmem.wire_bytes"] = metric{perStep(bytes), "bytes"}
	m["dmem.msgs"] = metric{perStep(msgs), "count"}
	m["dmem.frames"] = metric{perStep(frames), "count"}
	m["dmem.retries"] = metric{float64(tl.out.Retries), "count"}
	m["dmem.imbalance"] = metric{mean(tl.out.Imbalance), "1"}
	m["dmem.repartitions"] = metric{float64(tl.out.Reparts), "count"}

	ps := float64(len(plain.walls))
	m["runtime.alloc_bytes"] = metric{ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc), ps), "bytes"}
	m["runtime.allocs"] = metric{ratio(float64(plain.mem1.Mallocs-plain.mem0.Mallocs), ps), "count"}
	m["runtime.gc_cycles"] = metric{ratio(float64(plain.mem1.NumGC-plain.mem0.NumGC), ps), "count"}
	m["runtime.gc_pause_ms"] = metric{ratio(float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6, ps), "ms"}

	plainRate := ratio(ps, plain.loopWall())
	tracedRate := ratio(float64(len(tl.walls)), tl.loopWall())
	m["telemetry.overhead_frac"] = metric{ratio(plainRate-tracedRate, plainRate), "1"}
	return m
}

// poolBusyNs is the step's busy time summed over the pool's worker slots:
// the gravity solver reports it per slot (the last entry is work run
// inline by the calling goroutine, which is not a slot), the Stokes solver
// only per work class.
func poolBusyNs(r *telemetry.StepRecord) float64 {
	var busy float64
	if n := len(r.WorkerBusyNs); n > 0 {
		for _, v := range r.WorkerBusyNs[:n-1] {
			busy += float64(v)
		}
		return busy
	}
	for _, v := range r.ClassBusyNs {
		busy += float64(v)
	}
	return busy
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeChrome writes the recorder's timeline (open in Perfetto) into the
// output directory.
func (b *bench) writeChrome(rec *telemetry.Recorder) {
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", b.w.Name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	_ = rec.WriteChrome(f)
}
