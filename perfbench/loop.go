package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"syscall"
	"time"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/workload"
)

// client is one closed-loop virtual client: it owns a clock and a seeded
// op stream, and issues its next operation only after the previous one
// returned.
type client struct {
	id  int
	clk *sim.Clock
	gen *workload.Generator
	seq uint64
}

func newClients(w workload.YCSB, seed int64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, clk: sim.NewClock(), gen: w.NewGenerator(seed, i)}
	}
	return cs
}

// nextTag returns a write tag unique within the unit: never zero, so a
// shadow entry of 0 means "never written".
func (c *client) nextTag() uint64 {
	c.seq++
	return uint64(c.id+1)<<40 | c.seq
}

// closedLoop issues ops operations, always stepping the client with the
// lowest virtual clock and breaking ties by id. Everything runs on the
// calling goroutine, so for a given seed the interleaving, and therefore
// every virtual number, repeats exactly.
func closedLoop(clients []*client, ops int, step func(c *client)) {
	for i := 0; i < ops; i++ {
		next := clients[0]
		for _, c := range clients[1:] {
			if c.clk.Now() < next.clk.Now() {
				next = c
			}
		}
		step(next)
	}
}

// cpuTime is the CPU time the process has used, all threads together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opTimer times a unit's operations: each one's virtual and host latency,
// its span and, in traced rounds, the check that its attribution sums to
// its virtual latency.
type opTimer struct {
	rc     *roundCtx
	u      *unitResult
	parent uint64 // the unit's span
	prof   *profile.Profiler
	attr   profile.Attribution // attribution folded in so far
	n      uint64              // operations timed; the current one's id
}

// do runs op as the next operation of client clock c, recorded as name.
func (t *opTimer) do(c *sim.Clock, name string, op func() error) error {
	t.n++
	v0 := c.Now()
	h0 := time.Now()
	err := op()
	host := time.Since(h0)
	vlat := c.Now() - v0
	t.rc.tr.op(span{Parent: t.parent, Op: t.n, Name: name, Unit: t.u.name,
		host0: h0, host1: h0.Add(host), V0: int64(v0), V1: int64(c.Now())})
	t.u.record(vlat, host, err == nil)
	if t.prof != nil {
		checkAttribution(t.u, t.prof, &t.attr, vlat, t.n)
	}
	return err
}

// checkAttribution asserts that the operation just profiled was
// attributed exactly: its components sum to its virtual latency.
func checkAttribution(u *unitResult, p *profile.Profiler, prev *profile.Attribution, vlat time.Duration, opID uint64) {
	a := p.Attribution()
	dTotal := a.Total - prev.Total
	dSum := a.Sum() - prev.Sum()
	if dTotal != vlat || dSum != vlat {
		u.fail("%s: op %d attribution total %v, sum %v, virtual latency %v", u.name, opID, dTotal, dSum, vlat)
	}
	*prev = a
}

// makespan is the latest client clock: the virtual duration of the run.
func makespan(clients []*client) time.Duration {
	var m time.Duration
	for _, c := range clients {
		if c.clk.Now() > m {
			m = c.clk.Now()
		}
	}
	return m
}

// encodeVal builds the size-byte value written under tag: key, tag, and a
// tag-derived fill, so a torn, stale or misplaced value never verifies.
func encodeVal(size int, key, tag uint64) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], tag)
	for i := 16; i < size; i++ {
		v[i] = byte(tag>>(8*(i%8))) ^ byte(i)
	}
	return v
}

// checkVal reports whether got is the value last committed under tag
// (tag 0: the key was never written and reads as zeroes).
func checkVal(got []byte, size int, key, tag uint64) bool {
	if tag == 0 {
		return len(got) == size && bytes.Count(got, []byte{0}) == size
	}
	return bytes.Equal(got, encodeVal(size, key, tag))
}

// unitResult is one engine's or index cell's outcome in one round.
type unitResult struct {
	name      string
	vlat      []time.Duration // virtual latency per operation
	host      []time.Duration // host time per operation
	hostP50   float64         // median of host, ns, once host is dropped
	ops       int             // operations in the timed phase
	attempted int
	failed    int
	committed int
	makespan  time.Duration
	netBytes  int64
	setup     time.Duration // host time building substrate and engine
	timed     time.Duration // host time of the timed phase
	cpu       time.Duration // process CPU time of the timed phase
	mallocs   uint64        // heap allocations in the timed phase
	notes     []string      // failed checks, for the log

	memNew          time.Duration      // host time of memnode.New (index cells)
	ckptHost, ckptV []time.Duration    // host and virtual time per checkpoint
	layer           map[string]float64 // layer counters and shares
}

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	if len(u.notes) < 8 {
		u.notes = append(u.notes, fmt.Sprintf(format, args...))
	}
}

func (u *unitResult) record(vlat, host time.Duration, ok bool) {
	u.ops++
	u.attempted++
	u.vlat = append(u.vlat, vlat)
	u.host = append(u.host, host)
	if ok {
		u.committed++
	}
}

// digest fingerprints every virtual number the unit produced, so rounds
// and runs can be compared exactly.
func (u *unitResult) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for _, d := range u.vlat {
		put(int64(d))
	}
	put(int64(u.committed))
	put(int64(u.makespan))
	put(u.netBytes)
	return h.Sum64()
}

// vtput is committed operations per virtual second, in kops/s.
func (u *unitResult) vtput() float64 {
	if u.makespan <= 0 {
		return 0
	}
	return float64(u.committed) / u.makespan.Seconds() / 1e3
}

// quantile returns the mid-distribution q-quantile of xs in ns, sorting
// xs in place. Each distinct value sits at the midpoint of its rank range
// and q is interpolated linearly between neighbouring values. Modeled
// latencies take few distinct values, so a nearest-rank percentile would
// stick to one plateau and hide how the mass between plateaus shifts.
func quantile(xs []time.Duration, q float64) float64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := float64(len(xs))
	prevP, prevV := -1.0, 0.0
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		p, v := (float64(i)+float64(j-i)/2)/n, float64(xs[i])
		if p >= q {
			if prevP < 0 {
				return v
			}
			return prevV + (v-prevV)*(q-prevP)/(p-prevP)
		}
		prevP, prevV, i = p, v, j
	}
	return prevV
}

// meanOf is the arithmetic mean of xs in ns.
func meanOf(xs []time.Duration) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
