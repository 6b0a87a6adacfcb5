// Command perfbench is the repository's performance benchmark. It drives
// the public APIs of the ten OLTP engines and the three remote-memory
// indexes through fixed closed-loop workloads from a single goroutine and
// reports two kinds of number:
//
//   - what the simulator costs: host time, allocations and memory;
//   - what the modeled database delivers: virtual latency, throughput and
//     fabric bytes, which are exact for a given seed.
//
// A run repeats one fixed-size round of its workload until -seconds have
// passed, rebuilding every substrate per round, so each round checks the
// previous one for determinism and set-up is measured several times.
// With -trace 1 it instead reports per-layer metrics (see layers.go).
//
//	go run . -workload oltp-log -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"github.com/disagglab/disagg/internal/workload"
)

// Operations per engine per round: enough that each engine's virtual p99
// has hundreds of samples beyond it. oltp-log runs fewer because its seven
// engines cost more host time per operation than oltp-mem's three.
const (
	oltpLogOps = 24_000
	oltpMemOps = 40_000
)

// roundCtx carries one round's settings to the units it runs.
type roundCtx struct {
	seed     int64
	traced   bool // attach registry and profiler, record spans
	readback bool // read the whole keyspace back after the timed phase
	tr       *tracer
}

// unitDef is one engine or index cell of a workload.
type unitDef struct {
	name string
	run  func(rc *roundCtx) *unitResult
}

type workloadDef struct {
	name  string
	units []unitDef
}

func workloads() []workloadDef {
	var ws []workloadDef
	oltp := func(name string, specs []engineSpec, mix workload.YCSB, ops int) {
		w := workloadDef{name: name}
		for _, s := range specs {
			w.units = append(w.units, unitDef{s.name, func(rc *roundCtx) *unitResult { return runEngine(rc, s, mix, ops) }})
		}
		ws = append(ws, w)
	}
	// YCSB-A and YCSB-B with Zipf 0.99 skew over the same keyspace.
	oltp("oltp-log", logEngines, workload.YCSB{Keys: oltpKeys, ReadFrac: 0.5, Theta: 0.99, ValueSize: oltpValSize}, oltpLogOps)
	oltp("oltp-mem", memEngines, workload.YCSB{Keys: oltpKeys, ReadFrac: 0.95, Theta: 0.99, ValueSize: oltpValSize}, oltpMemOps)
	w := workloadDef{name: "index-sweep"}
	for _, s := range indexes {
		for _, n := range indexClients {
			w.units = append(w.units, unitDef{s.name + "/" + strconv.Itoa(n), func(rc *roundCtx) *unitResult { return runIndexCell(rc, s, n, indexOps) }})
		}
	}
	return append(ws, w)
}

// settle collects the heap before a unit builds its substrate, so that
// garbage of the previous unit is neither collected during this unit's
// timed phase nor kept resident beside it. Units call it after allocating
// their own buffers: with no allocation between the collection and the
// build, a large region freed by the previous unit is reused in place.
func settle() { runtime.GC() }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// series is the outcome of repeated rounds of one workload.
type series struct {
	w       workloadDef
	rounds  [][]*unitResult // untraced rounds; only the first keeps its samples
	stats   []roundStats    // per untraced round
	traced  [][]*unitResult // traced rounds
	tstats  []roundStats    // per traced round
	ref     []uint64        // virtual-result digests of the first round
	failed  int
	attempt int
	notes   []string
}

// roundStats are the host-side numbers of one round, kept so that its
// per-operation samples can be dropped: memory then stays that of one
// round however many rounds a run fits.
type roundStats struct {
	setup, cpu, timed time.Duration
	ops               int
	mallocs           uint64
	p50, p99          float64 // host ns per operation, all units pooled
}

// add folds a finished round into s, checking it against the first round:
// every virtual number must repeat exactly, traced or not.
func (s *series) add(rs []*unitResult, traced bool) {
	first := s.ref == nil
	var st roundStats
	var host []time.Duration
	for i, u := range rs {
		s.attempt += u.attempted
		s.failed += u.failed
		s.notes = append(s.notes, u.notes...)
		if d := u.digest(); first {
			s.ref = append(s.ref, d)
		} else if d != s.ref[i] {
			s.failed++
			s.notes = append(s.notes, fmt.Sprintf("%s: virtual results differ between rounds (traced=%v)", u.name, traced))
		}
		st.setup += u.setup
		st.cpu += u.cpu
		st.timed += u.timed
		st.ops += u.ops
		st.mallocs += u.mallocs
		u.hostP50 = quantile(u.host, 0.5)
		host = append(host, u.host...)
		u.host = nil
		if !first {
			u.vlat = nil
		}
	}
	st.p50, st.p99 = quantile(host, 0.5), quantile(host, 0.99)
	if traced {
		s.traced = append(s.traced, rs)
		s.tstats = append(s.tstats, st)
	} else {
		s.rounds = append(s.rounds, rs)
		s.stats = append(s.stats, st)
	}
}

// warm is the index of the first untraced round host-side metrics are
// taken from: the first round is skipped when there are others, because
// its substrates are built on memory fresh from the OS and its code paths
// run cold.
func (s *series) warm() int {
	if len(s.rounds) > 1 {
		return 1
	}
	return 0
}

// measure repeats rounds of w until d has passed and at least minRounds
// rounds ran. With a tracer, rounds alternate untraced and traced, ending
// on a traced one.
func measure(w workloadDef, seed int64, d time.Duration, minRounds int, tr *tracer) *series {
	traced := tr != nil
	s := &series{w: w}
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		rc := &roundCtx{seed: seed, readback: i == 0}
		if traced && i%2 == 1 {
			rc.traced = true
			if len(s.traced) == 0 {
				rc.tr = tr // spans of the first traced round only
			}
		}
		rs := make([]*unitResult, len(w.units))
		for j, ud := range w.units {
			rs[j] = ud.run(rc)
		}
		s.add(rs, rc.traced)
		if i+1 >= minRounds && time.Now().After(deadline) && (!traced || i%2 == 1) {
			return s
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: oltp-log, oltp-mem or index-sweep")
	seed := flag.Int64("seed", 1, "seed of the generated keys and values")
	seconds := flag.Int("seconds", 10, "how long to repeat rounds of the workload")
	trace := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "directory for the span dump and CPU profile of a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, d, *out)
	} else {
		res = runPlain(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func runPlain(w workloadDef, seed int64, d time.Duration) result {
	s := measure(w, seed, d, 3, nil)
	m := endToEnd(s)
	return s.result(m)
}

func (s *series) result(m map[string]metric) result {
	for _, n := range s.notes {
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	return result{Correct: s.failed == 0, Attempted: s.attempt, Failed: s.failed, Metrics: m}
}

// endToEnd computes the end-to-end metrics from the untraced rounds.
func endToEnd(s *series) map[string]metric {
	var setup, rate, p50, p99 []float64
	var ops int
	var mallocs uint64
	for _, st := range s.stats[s.warm():] {
		ops += st.ops
		mallocs += st.mallocs
		setup = append(setup, st.setup.Seconds())
		rate = append(rate, float64(st.ops)/st.cpu.Seconds()/1e3)
		p50 = append(p50, us(st.p50))
		p99 = append(p99, us(st.p99))
	}
	var vmean, vp99, vtput []float64
	var bytes int64
	committed := 0
	for _, u := range s.rounds[0] {
		vmean = append(vmean, us(meanOf(u.vlat)))
		vp99 = append(vp99, us(quantile(u.vlat, 0.99)))
		vtput = append(vtput, u.vtput())
		bytes += u.netBytes
		committed += u.committed
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds of %d operations; host metrics from the last %d rounds, virtual ones from the first\n",
		s.w.name, len(s.rounds), s.stats[0].ops, len(s.stats)-s.warm())
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"sim_kops_per_s":   {median(rate), "kops/s"},
		"host_op_p50_us":   {median(p50), "us"},
		"host_op_p99_us":   {median(p99), "us"},
		"allocs_per_op":    {float64(mallocs) / float64(ops), "count"},
		"peak_rss_mib":     {peakRSSMiB(), "MiB"},
		"vlat_mean_us":     {geomean(vmean), "us"},
		"vlat_p99_us":      {geomean(vp99), "us"},
		"vtput_kops_per_s": {geomean(vtput), "kops/s"},
		"net_bytes_per_op": {float64(bytes) / float64(committed), "B"},
	}
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// printResult writes one readable line per metric and then the JSON
// result, as the last line of standard output.
func printResult(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}
