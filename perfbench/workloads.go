package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"afmm/internal/balance"
	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sim"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// Workload is one named benchmark input: a seeded generator for the bodies
// (or immersed boundaries), the solver and machine it runs on, and the
// nominal host wall per step that sizes the step count from --seconds.
type Workload struct {
	Name string
	Why  string
	// Dominant is the layer the traced run is expected to show leading.
	Dominant string
	// StepS is the nominal host wall per step on the reference host. The
	// step count is a pure function of --seconds and StepS, so the virtual
	// clock of a run depends only on the seed, never on the host's speed.
	StepS float64
	// Params are the workload's fixed parameters, recorded with every
	// result as part of its fingerprint.
	Params map[string]any
	setup  func(seed int64, workers int) (instance, error)
}

// stepHook brackets the benchmark's own work inside a step callback: begin
// stamps the end of the program's step, end the return to the program.
type stepHook struct {
	begin func()
	end   func(finite bool)
}

// runOut is what one run of a workload produced: the per-step virtual
// trajectory (deterministic under a seed) plus failures.
type runOut struct {
	Virt       []float64 // per-step virtual Total (s)
	Compute    []float64 // per-step virtual compute (s)
	LB         []float64 // per-step virtual LB time (s)
	S          []int
	Counts     []costmodel.Counts
	Bytes      []int64 // dmem wire bytes per step
	Msgs       []int64 // dmem messages per step
	Frames     []int64 // dmem frames per step
	Retries    int64
	Imbalance  []float64
	Reparts    int
	Recoveries int
	Err        error
}

// instance is one set-up workload, ready to step.
type instance interface {
	// bodies is the number of bodies (markers) advanced per step.
	bodies() int
	// attach threads a telemetry recorder through the solver (nil detaches).
	attach(rec *telemetry.Recorder)
	// run advances the given number of steps through the public driver.
	run(steps int, rec *telemetry.Recorder, hook stepHook) runOut
	// accuracy re-solves on the current positions and returns the RMS
	// relative error of the sampled targets (input-order ids) against
	// direct summation, and whether every output is finite.
	accuracy(targets []int) (float64, bool)
	// digest hashes the initial state (positions, masses, forces and tree
	// shape), so repeated set-ups can be checked for determinism.
	digest() uint64
}

// Workload parameters (README.md explains the choices).
const (
	gravN      = 20000
	anchorR    = 9.7
	gravP      = 4
	farS       = 64
	nearS      = 180
	gravSoft   = 0.01
	gravDt     = 1e-4
	vcpuCores  = 10
	deviceBS   = 64
	stokesP    = 4
	stokesS0   = 32
	stokesDt   = 5e-4
	ringCount  = 64
	ringPoints = 256
	ringStiff  = 40.0
	ringRadius = 0.3
	stokesMu   = 1.0
	stokesEps  = 0.02
	dmemNodes  = 4
	dmemS      = 64
	dmemRepart = 1.15
)

// Workloads is the fixed benchmark set, in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name:     "grav-farfield",
		Why:      "2 GPUs at 1/64 keep the CPU far field critical: M2L (task.down) dominates, so a P2P change should not move it",
		Dominant: "core.down_ms",
		StepS:    1.15,
		Params: map[string]any{"n": gravN, "dist": "plummer-compressed-anchored", "p": gravP,
			"soften": gravSoft, "dt": gravDt, "cores": vcpuCores, "gpus": 2, "gpu_scale": 1.0 / 64,
			"block_size": deviceBS, "s": farS, "strategy": "full-pinned-s", "taskgraph": true},
		setup: func(seed int64, workers int) (instance, error) {
			return newGravity(seed, workers, 2, 1.0/64, farS)
		},
	},
	{
		Name:     "grav-nearfield",
		Why:      "same bodies on 4 GPUs at 1/16 with S=180 (where the balancer settles): near-field P2P is critical and M2L hides behind it",
		Dominant: "core.near_ms",
		StepS:    1.3,
		Params: map[string]any{"n": gravN, "dist": "plummer-compressed-anchored", "p": gravP,
			"soften": gravSoft, "dt": gravDt, "cores": vcpuCores, "gpus": 4, "gpu_scale": 1.0 / 16,
			"block_size": deviceBS, "s": nearS, "strategy": "full-pinned-s", "taskgraph": true},
		setup: func(seed int64, workers int) (instance, error) {
			return newGravity(seed, workers, 4, 1.0/16, nearS)
		},
	},
	{
		Name:     "stokes-rings",
		Why:      "the paper's fluid problem on a 1-worker pool: 4-pass Stokes far field, moving markers repair lists every step",
		Dominant: "core.down_ms",
		StepS:    0.52,
		Params: map[string]any{"rings": ringCount, "markers_per_ring": ringPoints, "ring_radius": ringRadius, "box": 2.0,
			"mu": stokesMu, "eps": stokesEps, "p": stokesP, "s0": stokesS0, "dt": stokesDt,
			"cores": vcpuCores, "gpus": 1, "gpu_scale": "1/64*stokeslet_flop_ratio",
			"block_size": deviceBS, "strategy": "full", "pool_workers": 1},
		setup: func(seed int64, _ int) (instance, error) {
			return newStokes(seed)
		},
	},
	{
		Name:     "dmem-4node",
		Why:      "executed distributed runtime on 4 virtual nodes over clean links: plan, transport and the dmem gravity engine",
		Dominant: "dmem.node_ms",
		StepS:    1.6,
		Params: map[string]any{"n": gravN, "dist": "plummer-compressed-anchored", "p": gravP, "s": dmemS,
			"soften": gravSoft, "dt": gravDt, "cores": vcpuCores, "nodes": dmemNodes,
			"disable_m2l_table": true, "repartition_threshold": dmemRepart},
		setup: func(seed int64, workers int) (instance, error) {
			return newDmem(seed, workers)
		},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stepsFor is the measured step count for a run of the given length.
func (w *Workload) stepsFor(seconds float64) int {
	n := int(math.Ceil(seconds / w.StepS))
	if n < minSteps {
		n = minSteps
	}
	return n
}

// minSteps keeps at least ten per-step samples beyond the reported tail
// percentile.
const minSteps = 12

// anchoredPlummer is afmm-sim's default distribution (a Plummer sphere
// shrunk 4x, so the core is dense enough for a deep adaptive tree) with
// two of its n bodies replaced by fixed anchors at opposite corners of the
// cube [-anchorR, anchorR]^3. The Plummer sampler clamps radii at 38.7 scale
// radii (9.68 after the shrink), so the anchors make the root cell the
// same cube for every seed. Without them the root cell follows the halo's
// extreme bodies, the core lands at a different offset in the cell grid
// from seed to seed, and at fixed S the far-field work (virtual and host)
// splits into two modes 20% apart.
func anchoredPlummer(n int, seed int64) *particle.System {
	sys := distrib.Plummer(n, 1, 1, seed)
	for i := range sys.Pos {
		sys.Pos[i] = sys.Pos[i].Scale(0.25)
	}
	sys.Pos[0] = geom.Vec3{X: anchorR, Y: anchorR, Z: anchorR}
	sys.Pos[1] = geom.Vec3{X: -anchorR, Y: -anchorR, Z: -anchorR}
	sys.Vel[0], sys.Vel[1] = geom.Vec3{}, geom.Vec3{}
	return sys
}

func machineCPU() vcpu.Spec {
	cpu := vcpu.DefaultSpec()
	cpu.Cores = vcpuCores
	return cpu
}

func derated(scale float64) vgpu.Spec {
	g := vgpu.ScaledSpec(scale)
	g.BlockSize = deviceBS
	return g
}

type gravity struct {
	sys    *particle.System
	solver *core.Solver
	kernel kernels.Gravity
}

// gravity is a gravity workload on the single-node heterogeneous machine.
// Its leaf capacity is pinned (a one-point search space for the Enforce
// strategy, whose Enforce_S keeps leaves within S as the core collapses):
// the Full strategy's S search lands on a flat optimum that
// moves with the seed (S 41-64 over 16 seeds on grav-farfield, 155-205
// on grav-nearfield), and host step wall moves with S by up to 40%, which
// would swamp any code change.
func newGravity(seed int64, workers, gpus int, scale float64, leafS int) (*gravity, error) {
	sys := anchoredPlummer(gravN, seed)
	k := kernels.Gravity{G: 1, Softening: gravSoft}
	s := core.NewSolver(sys, core.Config{
		P: gravP, S: leafS, Kernel: k,
		CPU: machineCPU(), NumGPUs: gpus, GPUSpec: derated(scale),
		TaskGraph: true, Pool: sched.NewPool(workers),
	})
	return &gravity{sys: sys, solver: s, kernel: k}, nil
}

func (g *gravity) bodies() int                    { return g.sys.Len() }
func (g *gravity) attach(rec *telemetry.Recorder) { g.solver.SetRecorder(rec) }
func (g *gravity) digest() uint64                 { return stateDigest(g.sys, len(g.solver.Tree.Nodes)) }

func (g *gravity) run(steps int, rec *telemetry.Recorder, hook stepHook) runOut {
	var out runOut
	res := sim.RunGravity(g.solver, sim.Config{
		Dt: gravDt, Steps: steps, Rec: rec,
		Balance: balance.Config{Strategy: balance.StrategyFull, MinS: g.solver.S(), MaxS: g.solver.S()},
		Observe: func(step int, phi []float64, acc []geom.Vec3) {
			hook.begin()
			out.Counts = append(out.Counts, costmodel.FromTree(g.solver.Tree.CountOps()))
			hook.end(allFinite(phi, acc))
		},
	})
	out.fromSim(res)
	return out
}

func (g *gravity) accuracy(targets []int) (float64, bool) {
	g.solver.Solve()
	return gravityError(g.sys, g.kernel, targets)
}

// stokesRings is the elastic-ring Stokes workload.
type stokesRings struct {
	sys    *particle.System
	solver *stokes.Solver
	rings  []stokes.Boundary
	kernel kernels.Stokeslet
}

// ringSystem seeds ringCount stretched elastic rings of radius ringRadius
// with centers in [-2,2]^3 and random orientation; each ring is stretched 1.4x
// along one in-plane axis and 0.7x along the other, as in
// examples/stokeslets, so the markers relax (and move) every step.
func ringSystem(seed int64) (*particle.System, []stokes.Boundary) {
	rng := rand.New(rand.NewSource(seed))
	sys := particle.New(ringCount * ringPoints)
	rings := make([]stokes.Boundary, ringCount)
	for r := range rings {
		c := geom.Vec3{X: 4*rng.Float64() - 2, Y: 4*rng.Float64() - 2, Z: 4*rng.Float64() - 2}
		axis := rng.Intn(3)
		base := r * ringPoints
		rings[r] = stokes.Ring(sys, base, ringPoints, c, ringRadius, axis, ringStiff)
		for i := base; i < base+ringPoints; i++ {
			d := sys.Pos[i].Sub(c)
			switch axis {
			case 0:
				d.Y *= 1.4
				d.Z *= 0.7
			case 1:
				d.X *= 1.4
				d.Z *= 0.7
			default:
				d.X *= 1.4
				d.Y *= 0.7
			}
			sys.Pos[i] = c.Add(d)
		}
	}
	return sys, rings
}

func newStokes(seed int64) (*stokesRings, error) {
	sys, rings := ringSystem(seed)
	k := kernels.Stokeslet{Mu: stokesMu, Eps: stokesEps}
	dev := derated(1.0 / 64)
	dev.InteractionsPerSecPerSM *= float64(kernels.FlopsPerGravityInteraction) /
		float64(kernels.FlopsPerStokesletInteraction)
	s := stokes.NewSolver(sys, stokes.Config{
		P: stokesP, S: stokesS0, Kernel: k,
		CPU: machineCPU(), NumGPUs: 1, GPUSpec: dev,
		TaskGraph: true, Pool: sched.NewPool(1),
	})
	return &stokesRings{sys: sys, solver: s, rings: rings, kernel: k}, nil
}

func (s *stokesRings) bodies() int                    { return s.sys.Len() }
func (s *stokesRings) attach(rec *telemetry.Recorder) { s.solver.SetRecorder(rec) }
func (s *stokesRings) digest() uint64                 { return stateDigest(s.sys, len(s.solver.Tree.Nodes)) }

func (s *stokesRings) run(steps int, rec *telemetry.Recorder, hook stepHook) runOut {
	var out runOut
	res := sim.RunStokes(s.solver, s.rings, sim.Config{
		Dt: stokesDt, Steps: steps, Rec: rec,
		Balance: balance.Config{Strategy: balance.StrategyFull},
		Observe: func(step int, phi []float64, vel []geom.Vec3) {
			hook.begin()
			out.Counts = append(out.Counts, costmodel.FromTree(s.solver.Tree.CountOps()))
			hook.end(allFinite(phi, vel))
		},
	})
	out.fromSim(res)
	return out
}

func (s *stokesRings) accuracy(targets []int) (float64, bool) {
	stokes.ClearForces(s.sys)
	for _, b := range s.rings {
		b.AccumulateForces(s.sys)
	}
	s.solver.Solve()
	sys := s.sys
	return relError(sys, targets, false, func(i int) geom.Vec3 {
		var ref geom.Vec3
		for j := range sys.Pos {
			ref = ref.Add(s.kernel.Velocity(sys.Pos[i], sys.Pos[j], sys.Aux[j]))
		}
		return ref
	}), allFinite(nil, sys.Acc)
}

// cluster is the executed distributed-memory workload.
type cluster struct {
	sys    *particle.System
	solver *dmem.Solver
	kernel kernels.Gravity
}

func newDmem(seed int64, workers int) (*cluster, error) {
	sys := anchoredPlummer(gravN, seed)
	k := kernels.Gravity{G: 1, Softening: gravSoft}
	cpu := machineCPU()
	d, err := dmem.NewSolver(sys, dmem.Config{
		Core: core.Config{
			P: gravP, S: dmemS, DisableM2LTable: true, Kernel: k,
			CPU: cpu, Pool: sched.NewPool(workers),
		},
		Nodes:   dmem.HomogeneousNodes(dmemNodes, dmem.NodeSpec{CPU: cpu}),
		Execute: true,
	})
	if err != nil {
		return nil, err
	}
	return &cluster{sys: sys, solver: d, kernel: k}, nil
}

func (c *cluster) bodies() int                    { return c.sys.Len() }
func (c *cluster) attach(rec *telemetry.Recorder) { c.solver.SetRecorder(rec) }
func (c *cluster) digest() uint64                 { return stateDigest(c.sys, len(c.solver.Inner.Tree.Nodes)) }

func (c *cluster) run(steps int, _ *telemetry.Recorder, hook stepHook) runOut {
	var out runOut
	res := c.solver.RunWith(dmem.RunConfig{
		Steps: steps, Dt: gravDt,
		Policy: dmem.RebalancePolicy{Threshold: dmemRepart},
		OnStep: func(step int) {
			hook.begin()
			hook.end(allFinite(c.sys.Phi, c.sys.Acc))
		},
	})
	for _, rep := range res.Steps {
		out.Virt = append(out.Virt, rep.StepTime)
		out.Bytes = append(out.Bytes, rep.TotalBytes)
		out.Msgs = append(out.Msgs, rep.TotalMsgs)
		out.Frames = append(out.Frames, rep.Net.FramesSent)
		out.Imbalance = append(out.Imbalance, rep.Imbalance)
	}
	out.Retries = res.Net.Retries
	out.Reparts = res.Rebalances
	return out
}

func (c *cluster) accuracy(targets []int) (float64, bool) {
	c.solver.Solve()
	return gravityError(c.sys, c.kernel, targets)
}

// fromSim copies the virtual trajectory out of a sim.Result.
func (o *runOut) fromSim(res sim.Result) {
	for _, r := range res.Records {
		o.Virt = append(o.Virt, r.Total)
		o.Compute = append(o.Compute, r.Compute)
		o.LB = append(o.LB, r.LBTime)
		o.S = append(o.S, r.S)
	}
	o.Recoveries = res.Recoveries
	o.Err = res.Err
}

// gravityError is the RMS relative acceleration error of the sampled
// targets against a direct sum over all bodies, after a fresh solve on the
// current positions.
func gravityError(sys *particle.System, k kernels.Gravity, targets []int) (float64, bool) {
	return relError(sys, targets, true, func(i int) geom.Vec3 {
		var ref geom.Vec3
		for j := range sys.Pos {
			_, a := k.Accumulate(sys.Pos[i], sys.Pos[j], sys.Mass[j])
			ref = ref.Add(a)
		}
		return ref
	}), allFinite(sys.Phi, sys.Acc)
}

// relError is the RMS relative error of the sampled targets (input-order
// ids) against direct sums split across the CPUs. perTarget takes each
// target's error relative to its own reference, so every target weighs the
// same; otherwise the summed squared error is taken relative to the summed
// squared reference. Gravity uses perTarget: the summed form is dominated
// by the few core bodies of the collapsing Plummer sphere, whose
// accelerations reach 1e6 on some seeds and 7e4 on others, and it jumps
// 30x from seed to seed. Stokes uses the summed form: many ring markers
// barely move, and their near-zero velocities make per-target ratios
// blow up.
func relError(sys *particle.System, targets []int, perTarget bool, direct func(slot int) geom.Vec3) float64 {
	loc := storageOf(sys)
	refs := make([]geom.Vec3, len(targets))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < len(targets); t += workers {
				refs[t] = direct(loc[targets[t]])
			}
		}(w)
	}
	wg.Wait()
	var num, den float64
	for t, id := range targets {
		d2, r2 := sys.Acc[loc[id]].Sub(refs[t]).Norm2(), refs[t].Norm2()
		if perTarget {
			d2, r2 = d2/r2, 1
		}
		num += d2
		den += r2
	}
	return math.Sqrt(num / den)
}

// storageOf inverts sys.Index: input-order id -> storage slot.
func storageOf(sys *particle.System) []int {
	loc := make([]int, sys.Len())
	for slot, id := range sys.Index {
		loc[id] = slot
	}
	return loc
}

// sampleTargets draws k distinct input-order ids from n under a seed.
func sampleTargets(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}

func allFinite(phi []float64, v []geom.Vec3) bool {
	for _, x := range phi {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	for _, a := range v {
		if !finite3(a) {
			return false
		}
	}
	return true
}

func finite3(a geom.Vec3) bool {
	s := a.X + a.Y + a.Z
	return !math.IsNaN(s) && !math.IsInf(s, 0)
}
