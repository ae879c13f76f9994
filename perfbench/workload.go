// Package perfbench is the service benchmark of the llm4eda job server:
// seeded workload generation, the statistics the benchmark reports, and
// the per-layer arithmetic of the traced run. The runnable parts live in
// cmd/bench (the closed-loop generator and orchestrator) and cmd/host
// (the traced server host); run.sh builds and starts them.
package perfbench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"llm4eda/eda"
)

// Clients is the closed-loop client count: each client submits one spec,
// waits for its terminal status and then submits the next, as callers
// that wait for their report do. Two matches the CPU count of the host
// the benchmark was sized on, and each client holds at most one
// connection, which its submit and its event stream take in turn.
const Clients = 2

// Workload is one traffic mix. Every spec it yields is a pure function
// of the workload seed and the spec's position, so the same seed gives
// the same traffic.
type Workload struct {
	Name string
	Why  string
	// Timed returns client c's n-th spec of the timed window.
	Timed func(seed uint64, c, n int) eda.Spec
	// Warmup returns the specs run before timing: the hot set for
	// hot-replay, and for the cold workloads specs drawn from a seed
	// range disjoint from the timed one, so farm caches fill without
	// pre-computing any timed report.
	Warmup func(seed uint64) []eda.Spec
	// CheckStride and CheckCount pick the deterministic output-check
	// sample of a cold workload: timed indices 0, CheckStride, ... below
	// CheckStride*CheckCount. Hot-replay checks its whole hot set.
	CheckStride, CheckCount int
	// Hot marks a workload whose timed specs all come from its warm-up
	// set, so every timed job must be a report-store hit whose bytes
	// equal the warm-up's.
	Hot bool
	// Probe is the first job of a freshly booted server when set-up is
	// measured. It is the same for every workload seed, so set-up time
	// does not vary with the seed, and its run seed lies outside the
	// timed and warm-up ranges.
	Probe eda.Spec
}

// probeSeed is the run seed of every probe: above any seedBase plus the
// warm-up offset.
const probeSeed = 1 << 62

// Problems is the full benchmark suite the cold-mix rotation covers.
var Problems = []string{
	"not1", "and4", "mux2", "adder4", "sub8", "mux4", "dec3to8", "enc8to3",
	"parity8", "popcount8", "alu8", "cmp8", "absdiff8", "minmax8", "barrel8",
	"gray4", "satadd8", "mult4",
	"dff", "counter8", "shift4", "updown4", "det101", "lfsr8", "edgedet", "pwm4",
}

// CombProblems are the combinational problems: the ones with ports and a
// C model, which crosscheck needs and vrank's stimulus ranking exercises.
var CombProblems = Problems[:18]

// HotSetSize is the number of distinct specs hot-replay replays.
const HotSetSize = 8

// warmOffset separates warm-up run seeds from the timed range, so no
// warm-up job computes a timed job's report.
const warmOffset = 1 << 30

// Workloads lists the benchmark's traffic mixes in BENCHMARK.json order.
var Workloads = []*Workload{
	{
		Name: "hot-replay",
		Why:  "every timed job is a report-store hit answered in the submit reply: decode, validate, content key, store read and encoding, no queue, farm or kernel",
		Timed: func(seed uint64, c, n int) eda.Spec {
			return hotSpec(seed, hotIndex(seed, c, n))
		},
		Warmup: func(seed uint64) []eda.Spec {
			out := make([]eda.Spec, HotSetSize)
			for j := range out {
				out[j] = hotSpec(seed, j)
			}
			return out
		},
		Hot:   true,
		Probe: eda.Spec{Framework: "vrank", Problem: "alu8", Run: eda.RunSpec{Seed: probeSeed}},
	},
	{
		Name:        "cold-mix",
		Why:         "unique agent/autochip/lint/vrank specs over all 26 problems: every job writes a new report, so per-job fixed cost of the write path dominates",
		Timed:       coldTimed(coldMixSpec),
		Warmup:      coldWarmup(coldMixSpec, 4*len(Problems)),
		CheckStride: 7, CheckCount: 16,
		Probe: eda.Spec{Framework: "agent", Problem: "adder4", Run: eda.RunSpec{Seed: probeSeed}},
	},
	{
		Name:        "sim-sweep",
		Why:         "unique vrank k=16 temperature=1 jobs and one >=1024-vector crosscheck in four: new testbenches miss the farm, so compile and simulation do real work",
		Timed:       coldTimed(simSweepSpec),
		Warmup:      coldWarmup(simSweepSpec, 2*len(CombProblems)),
		CheckStride: 7, CheckCount: 16,
		Probe: eda.Spec{Framework: "vrank", Problem: "mult4", Run: eda.RunSpec{Seed: probeSeed},
			Params: map[string]float64{"k": 16, "temperature": 1}},
	},
	{
		Name:        "slt-power",
		Why:         "unique small-evals slt and gp jobs: long CPU-bound jobs outside benchset and farm that expose queue-shard head-of-line blocking",
		Timed:       coldTimed(sltPowerSpec),
		Warmup:      coldWarmup(sltPowerSpec, 4),
		CheckStride: 5, CheckCount: 6,
		Probe: eda.Spec{Framework: "slt", Run: eda.RunSpec{Seed: probeSeed},
			Params: map[string]float64{"evals": 2}},
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// TimedIndex is the global index of client c's n-th timed job. Cold
// workloads derive spec uniqueness from it.
func TimedIndex(c, n int) int { return n*Clients + c }

// mix is the splitmix64 finalizer: it spreads nearby workload seeds
// over unrelated spec seeds and problem orders.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedBase is the first spec seed of a workload seed. It leaves room
// above it for the timed range and the warm-up range at warmOffset.
func seedBase(seed uint64) uint64 { return mix(seed)>>24 + 1 }

// perm is the workload seed's order over n problems.
func perm(seed uint64, salt int64, n int) []int {
	return rand.New(rand.NewSource(int64(mix(seed)) ^ salt)).Perm(n)
}

// hotProblems fixes the hot set's problems, vrank on the even entries
// and autochip on the odd ones; the seed picks the run seeds. With the
// work of filling the hot set the same for every seed, so is the memory
// it leaves behind.
var hotProblems = [HotSetSize]string{"alu8", "adder4", "mux4", "counter8", "enc8to3", "det101", "popcount8", "gray4"}

func hotSpec(seed uint64, j int) eda.Spec {
	fw := "vrank"
	if j%2 == 1 {
		fw = "autochip"
	}
	return eda.Spec{Framework: fw, Problem: hotProblems[j],
		Run: eda.RunSpec{Seed: seedBase(seed) + uint64(j)}}
}

// hotIndex picks client c's n-th hot-set entry. Client c draws only the
// entries j with j%Clients == c, so one spec is never in flight from two
// clients at once: the traced run attributes server spans to jobs by
// spec, which needs that.
func hotIndex(seed uint64, c, n int) int {
	r := mix(mix(seed^uint64(c+1)<<40) + uint64(n))
	return int(r%uint64(HotSetSize/Clients))*Clients + c
}

// coldTimed adapts a cold spec family to the timed signature.
func coldTimed(at func(seed uint64, i int, warm bool) eda.Spec) func(uint64, int, int) eda.Spec {
	return func(seed uint64, c, n int) eda.Spec { return at(seed, TimedIndex(c, n), false) }
}

// coldWarmup returns the first n warm-up specs of a cold family.
func coldWarmup(at func(seed uint64, i int, warm bool) eda.Spec, n int) func(uint64) []eda.Spec {
	return func(seed uint64) []eda.Spec {
		out := make([]eda.Spec, n)
		for i := range out {
			out[i] = at(seed, i, true)
		}
		return out
	}
}

// specSeed is the unique run seed of cold index i.
func specSeed(seed uint64, i int, warm bool) uint64 {
	s := seedBase(seed) + uint64(i)
	if warm {
		s += warmOffset
	}
	return s
}

// coldMixSpec rotates the four Verilog flows with default params over
// every problem: framework changes every job, problem every four jobs.
func coldMixSpec(seed uint64, i int, warm bool) eda.Spec {
	fws := []string{"agent", "autochip", "lint", "vrank"}
	p := perm(seed, 2, len(Problems))
	return eda.Spec{Framework: fws[i%len(fws)],
		Problem: Problems[p[(i/len(fws))%len(Problems)]],
		Run:     eda.RunSpec{Seed: specSeed(seed, i, warm)}}
}

// simSweepSpec runs three vrank k=16 jobs at temperature 1 (sampled
// candidates are new designs) for every crosscheck job. A crosscheck
// testbench depends only on the problem and the vector count; the count
// steps once per pass over the problems, so every (problem, count) bench
// is new and compiles. Each such bench stays in the farm's design cache
// at about 3 MB, which is why crosscheck is one job in four and not
// every other one: the server's memory stays well under a gigabyte.
func simSweepSpec(seed uint64, i int, warm bool) eda.Spec {
	p := perm(seed, 3, len(CombProblems))
	problem := CombProblems[p[i%len(CombProblems)]]
	run := eda.RunSpec{Seed: specSeed(seed, i, warm)}
	if i%4 != 3 {
		return eda.Spec{Framework: "vrank", Problem: problem, Run: run,
			Params: map[string]float64{"k": 16, "temperature": 1}}
	}
	vectors := 1024 + (i/4)/len(CombProblems)
	if warm {
		vectors += 512
	}
	return eda.Spec{Framework: "crosscheck", Problem: CombProblems[p[(i/4)%len(CombProblems)]], Run: run,
		Params: map[string]float64{"vectors": float64(vectors)}}
}

// sltPowerSpec alternates short slt loops with small gp baselines. Both
// take about 0.12 s alone (gp scores its initial population on every
// CPU), so latency has one mode, not two.
func sltPowerSpec(seed uint64, i int, warm bool) eda.Spec {
	run := eda.RunSpec{Seed: specSeed(seed, i, warm)}
	if i%2 == 1 {
		return eda.Spec{Framework: "gp", Run: run,
			Params: map[string]float64{"evals": 6, "population": 6}}
	}
	return eda.Spec{Framework: "slt", Run: run, Params: map[string]float64{"evals": 2}}
}

// Key is the per-job identifier the traced run joins spans on: every
// result-determining field of the registry-normalized spec. Spans of one
// job carry its key, and each workload keeps one key from being in
// flight twice at once.
func Key(spec eda.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%s|%s|%s|%s", spec.Framework, spec.Run.Seed, spec.Run.Tier,
		spec.Problem, spec.Kernel, spec.Source)
	for _, v := range spec.Vectors {
		fmt.Fprintf(&b, "|v%v", v)
	}
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%g", k, spec.Params[k])
	}
	return b.String()
}
