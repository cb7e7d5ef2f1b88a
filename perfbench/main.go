// Command perfbench is webfail's benchmark. It runs one workload through
// the same public calls cmd/webfail and cmd/webfail-analyze make, checks
// every repetition's output, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as one JSON line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench compare BASE.jsonl NEW.jsonl
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	minReps = 3 // timed repetitions per untraced run, however long they take
	// An untraced run takes at least minSetups setup_s samples and keeps
	// setting up until setupBudget has gone into it, at most maxSetups
	// times: cheap set-ups need many samples for a steady median.
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "run seed: transaction schedule and outcome draws")
	seconds := fs.Int("seconds", 10, "measuring time of the run")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for trace JSON, the result ledger and scratch datasets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, seed: *seed, dir: dir}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var human map[string]metric
	if *traced == 1 {
		tracePath := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		res, err = measureLayers(b, budget, tracePath, stderr)
		if res != nil {
			human = res.Metrics
		}
	} else {
		res, human, err = measureEndToEnd(b, budget, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	prov := newProvenance(w, *seed, *traced == 1)
	printTable(stdout, w.name, human)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance: %s\n", pj)
	if err := appendLedger(filepath.Join(*out, "ledger.jsonl"), prov, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: ledger: %v\n", err)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

// fits reports whether one more round, as long as the average of the
// rounds done since start, ends within budget.
func fits(start time.Time, budget time.Duration, rounds int) bool {
	elapsed := time.Since(start)
	return rounds > 0 && elapsed+elapsed/time.Duration(rounds) <= budget
}

// sample is one timed repetition.
type sample struct {
	setup, wall, cpu time.Duration
	r                *rep
}

// timedRep runs one repetition, timing setup and the timed part apart.
// Garbage from earlier repetitions is collected first, outside both
// timers.
func (b *bench) timedRep(tr *tracer) (sample, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := b.newRep(tr)
	s := sample{setup: time.Since(t0), r: r}
	if err != nil {
		return s, err
	}
	c0 := cpuTime()
	t1 := time.Now()
	err = b.run(r, tr)
	s.wall = time.Since(t1)
	s.cpu = cpuTime() - c0
	if err == nil {
		err = b.check(r)
	}
	return s, err
}

// warmUp runs one untimed, checked repetition: a fresh process's first
// one grows the heap from the OS and fills the caches, and runs
// noticeably slower than the rest.
func (b *bench) warmUp(res *result, stderr io.Writer) {
	res.Attempted++
	s, err := b.timedRep(nil)
	if err != nil {
		res.Failed++
		fmt.Fprintf(stderr, "perfbench: %s warm-up repetition: %v\n", b.w.name, err)
	}
	b.discard(s.r)
}

// memGCPercent is the GOGC of the memory repetition. The live heap is
// only known after a collection; collecting often keeps the sampled
// high-water mark close to the true one, where the default pacing
// catches or misses transient peaks by chance.
const memGCPercent = 10

// An untraced run makes memory repetitions until memBudget has gone
// into them, at least one and at most maxMemReps, and reports the median
// peak.
const (
	memBudget  = 2 * time.Second
	maxMemReps = 9
)

// memoryRep runs one extra, untimed repetition to find the high-water
// live heap of the timed part.
func (b *bench) memoryRep() (float64, error) {
	runtime.GC()
	r, err := b.newRep(nil)
	defer b.discard(r)
	if err != nil {
		return 0, err
	}
	old := debug.SetGCPercent(memGCPercent)
	heap := startHeapSampler()
	err = b.run(r, nil)
	peak := heap.finish()
	debug.SetGCPercent(old)
	if err == nil {
		err = b.check(r)
	}
	return peak, err
}

// discard releases what a repetition holds: its open dataset and, unless
// another run reads it, the dataset it wrote.
func (b *bench) discard(r *rep) {
	if r == nil {
		return
	}
	if r.file != nil {
		r.file.Close()
	}
	if r.path != "" && (b.live == nil || r.path != b.live.path) {
		os.Remove(r.path)
	}
}

// measureEndToEnd repeats the workload, untraced, for the measuring
// time (at least minReps times) and reports each end-to-end metric's
// median over the repetitions.
func measureEndToEnd(b *bench, budget time.Duration, stderr io.Writer) (*result, map[string]metric, error) {
	if err := b.prepare(); err != nil {
		return nil, nil, err
	}
	vals := map[string][]float64{}
	res := &result{}
	var setupTotal float64
	addSetup := func(d time.Duration) {
		vals["setup_s"] = append(vals["setup_s"], d.Seconds())
		setupTotal += d.Seconds()
	}
	// extraSetup takes one more setup_s sample the way timedRep does:
	// after a collection, with nothing run on the state it builds.
	extraSetup := func() error {
		runtime.GC()
		t0 := time.Now()
		r, err := b.newRep(nil)
		if err == nil {
			addSetup(time.Since(t0))
		}
		b.discard(r)
		return err
	}
	start := time.Now()
	b.warmUp(res, stderr)
	for n := 0; n < minReps || fits(start, budget, n); n++ {
		res.Attempted++
		s, err := b.timedRep(nil)
		if s.r != nil {
			addSetup(s.setup)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: %s repetition %d: %v\n", b.w.name, res.Attempted, err)
			b.discard(s.r)
			continue
		}
		wall := s.wall.Seconds()
		vals["wall_s"] = append(vals["wall_s"], wall)
		vals["txns_per_s"] = append(vals["txns_per_s"], float64(s.r.txns())/wall)
		vals["records_per_s"] = append(vals["records_per_s"], float64(s.r.records())/wall)
		vals["cpu_s"] = append(vals["cpu_s"], s.cpu.Seconds())
		b.discard(s.r)
		// Extra set-ups are spread over the run, so that the setup_s
		// median, like the others, averages over the machine's drift
		// instead of sampling one moment of it.
		for len(vals["setup_s"]) < maxSetups && setupTotal < setupBudget.Seconds()*float64(time.Since(start))/float64(budget) {
			if err := extraSetup(); err != nil {
				return nil, nil, err
			}
		}
	}
	memStart := time.Now()
	for n := 0; n < maxMemReps && (n == 0 || time.Since(memStart) < memBudget); n++ {
		res.Attempted++
		peak, err := b.memoryRep()
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: %s memory repetition: %v\n", b.w.name, err)
			continue
		}
		vals["peak_heap_mb"] = append(vals["peak_heap_mb"], peak)
	}
	for n := len(vals["setup_s"]); n < maxSetups && (n < minSetups || setupTotal < setupBudget.Seconds()); n = len(vals["setup_s"]) {
		if err := extraSetup(); err != nil {
			return nil, nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(vals["wall_s"]) > 0
	res.Metrics = map[string]metric{}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{median(vals[d.name]), d.unit}
	}
	human := map[string]metric{"run_fail_frac": {float64(res.Failed) / float64(res.Attempted), "frac"}}
	for k, v := range res.Metrics {
		human[k] = v
	}
	return res, human, nil
}

// measureLayers alternates untraced and traced repetitions for the
// measuring time (at least one pair), reports the traced repetitions'
// per-layer medians plus the probes run on the last one, and writes the
// spans as Chrome trace JSON.
func measureLayers(b *bench, budget time.Duration, tracePath string, stderr io.Writer) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	tr := newTracer()
	res := &result{}
	var untraced, traced []float64
	layers := map[string][]float64{}
	var last *rep
	start := time.Now()
	b.warmUp(res, stderr)
	for pairs := 0; pairs == 0 || fits(start, budget, pairs); pairs++ {
		for _, t := range []*tracer{nil, tr} {
			res.Attempted++
			if t != nil {
				t.run++
			}
			s, err := b.timedRep(t)
			if err != nil {
				res.Failed++
				fmt.Fprintf(stderr, "perfbench: %s repetition %d: %v\n", b.w.name, res.Attempted, err)
				b.discard(s.r)
				continue
			}
			if t == nil {
				untraced = append(untraced, s.wall.Seconds())
				b.discard(s.r)
				continue
			}
			traced = append(traced, s.wall.Seconds())
			for k, v := range b.spanLayers(s.r, tr) {
				layers[k] = append(layers[k], v)
			}
			b.discard(last)
			last = s.r
		}
	}
	m := map[string]float64{}
	for k, v := range layers {
		m[k] = median(v)
	}
	if last != nil {
		tr.run++
		res.Attempted++
		// The probes report single-shot figures into m.
		if err := b.probe(last, tr, m); err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: %s probes: %v\n", b.w.name, err)
		}
		b.discard(last)
	}
	if len(untraced) > 0 && len(traced) > 0 {
		m["obs.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	}
	m["bench.run_fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(traced) > 0
	res.Metrics = map[string]metric{}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), tracePath)
	return res, nil
}

// heapSampler tracks the high-water live heap: the runtime's
// live-after-mark figure, polled every millisecond, plus one forced
// collection at the end while the repetition's state is still
// reachable.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const liveHeap = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeap}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printTable prints the metrics by name with their units, ahead of the
// JSON result line.
func printTable(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s\n", workload)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
