package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

type engine int

const (
	fastEngine engine = iota
	packetEngine
	offlineEngine
)

// scenarioSeed fixes each scenario's fault timeline at the world the CLIs
// build by default (webfail -seed). The benchmark's --seed is the run
// seed (webfail -runseed): it draws the transaction schedule and every
// outcome, so runs see different traffic over the same calibrated world
// instead of differently sized worlds.
const scenarioSeed = 2005

// workloadSpec fixes one workload's inputs.
type workloadSpec struct {
	name           string
	engine         engine
	scenario       string
	clients, sites int   // roster limits (0 = all)
	hours          int64 // experiment window
	shards         int   // worker shards (fast run, offline ingest)
	save           bool  // stream the failure dataset to a file
}

// workloads are the benchmark's inputs; README.md says why each is
// there and which layers it stresses. Windows are shorter than the
// paper's month so that one run holds several repetitions; one shard
// keeps run-to-run spread low on a shared two-CPU machine.
var workloads = []workloadSpec{
	{
		name:     "paper-month",
		engine:   fastEngine,
		scenario: scenario.PaperDefault,
		hours:    168,
		shards:   1,
		save:     true,
	},
	{
		name:     "chaos-day",
		engine:   fastEngine,
		scenario: "10k-chaos",
		hours:    3,
		shards:   1,
	},
	{
		// Reads the dataset paper-month writes, so it shares its world.
		name:     "offline-analyze",
		engine:   offlineEngine,
		scenario: scenario.PaperDefault,
		hours:    168,
		shards:   1,
	},
}

// packetProbe is the packet engine's input: paper-default cut to 16x16
// for 24 h, capture on the first client. It is not a workload of its
// own: on a shared two-CPU machine the spread of its wall time over ten
// runs went past the largest bound a benchmark may set (0.25) in two of
// four sets, so paper-month's traced run measures its layers instead
// (see probePacket).
var packetProbe = workloadSpec{
	name:     "packet-probe",
	engine:   packetEngine,
	scenario: scenario.PaperDefault,
	clients:  16,
	sites:    16,
	hours:    24,
	shards:   1,
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// failureOnlyArtifacts are the report sections that depend only on the
// topology and the failed transactions, so offline analysis of a
// dataset must reproduce them exactly.
var failureOnlyArtifacts = []string{"table1", "table2", "table4", "fig2", "fig3"}

// bench holds what one invocation shares across its repetitions.
type bench struct {
	w        *workloadSpec
	seed     int64
	dir      string // scratch directory for datasets
	expected int64  // scheduled transactions of one simulating repetition
	live     *rep   // offline-analyze: the paper-month run whose dataset it reads
	digest   string // artifact digest of the first repetition
	reps     int    // repetitions started
}

// rep is one repetition: the state setup builds, and what the timed
// part produced.
type rep struct {
	id    int
	setup int // span ids (0 when untraced)
	wall  int

	spec *scenario.Spec
	topo *workload.Topology
	sc   *workload.Scenario
	cfg  measure.Config
	a    *core.Analysis
	accs []*core.Analysis

	src  dataset.RecordSource // offline-analyze
	file *os.File
	meta measure.DatasetMeta

	artifacts  []byte
	path       string // dataset this repetition wrote or read
	stored     int64
	scanned    int64
	capPackets int64
	// Traced repetitions only.
	failRecs  []measure.Record // failure records, for the per-pass replay
	shardBusy []time.Duration  // per-shard span from run start to last record
}

// txns is the transactions one repetition covers: every scheduled one a
// simulation evaluated (performed or skipped because the client was
// off), or, offline, the ones the analysed dataset recorded.
func (r *rep) txns() int64 {
	if r.src != nil {
		return r.meta.Transactions
	}
	reg := r.cfg.Metrics
	return reg.Counter("measure_txns_total").Value() + reg.Counter("measure_txns_skipped_total").Value()
}

// records is the measure.Records one repetition fed the analyzer: every
// performed transaction of a simulation, every stored record offline.
func (r *rep) records() int64 { return r.a.TotalTxns() }

// prepare does the per-seed work no repetition is timed on.
func (b *bench) prepare() error {
	switch b.w.engine {
	case offlineEngine:
		// The dataset offline-analyze reads is the one paper-month
		// writes for the same seed.
		src := &bench{w: workloadByName("paper-month"), seed: b.seed, dir: b.dir}
		if err := src.prepare(); err != nil {
			return err
		}
		r, err := src.newRep(nil)
		if err == nil {
			err = src.run(r, nil)
		}
		if err == nil {
			err = src.check(r)
		}
		if err != nil {
			return fmt.Errorf("writing the paper-month dataset: %w", err)
		}
		b.live = &rep{path: r.path, stored: r.stored, artifacts: r.artifacts}
	default:
		r := &rep{}
		if err := b.setupSim(r, nil); err != nil {
			return err
		}
		b.expected = int64(workload.ExpectedTransactions(r.topo, b.seed, r.cfg.Start, r.cfg.End))
	}
	return nil
}

// newRep builds one repetition's state: everything before the first
// transaction or record.
func (b *bench) newRep(tr *tracer) (*rep, error) {
	b.reps++
	r := &rep{id: b.reps}
	r.setup = tr.begin("setup", 0)
	defer tr.end(r.setup)
	if b.w.engine == offlineEngine {
		return r, b.setupOffline(r, tr)
	}
	return r, b.setupSim(r, tr)
}

func (b *bench) setupSim(r *rep, tr *tracer) error {
	w := b.w
	sp := tr.begin("scenario.resolve", r.setup)
	spec, err := scenario.Resolve(w.scenario)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("scenario.topology", r.setup)
	topo, err := spec.Topology(w.clients, w.sites)
	tr.end(sp)
	if err != nil {
		return err
	}
	end := simnet.FromHours(w.hours)
	sp = tr.begin("scenario.params", r.setup)
	params, err := spec.Params(scenarioSeed, 0, end)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("workload.build_scenario", r.setup)
	sc := workload.BuildScenario(topo, params)
	tr.end(sp)

	sp = tr.begin("core.new_analysis", r.setup)
	r.a = core.NewAnalysisOpts(topo, 0, end, core.Options{})
	if w.engine == fastEngine {
		r.accs = make([]*core.Analysis, measure.EffectiveShards(len(topo.Clients), w.shards))
		for i := range r.accs {
			r.accs[i] = core.NewAnalysisOpts(topo, 0, end, core.Options{})
		}
	}
	tr.end(sp)
	r.spec, r.topo, r.sc = spec, topo, sc
	// The registry carries the engine's own transaction census, which the
	// correctness checks read; it is folded once per shard, not per
	// transaction.
	r.cfg = measure.Config{Topo: topo, Scenario: sc, Seed: b.seed, Start: 0, End: end, Metrics: obs.NewRegistry()}
	return nil
}

func (b *bench) setupOffline(r *rep, tr *tracer) error {
	sp := tr.begin("dataset.open", r.setup)
	f, err := os.Open(b.live.path)
	if err != nil {
		tr.end(sp)
		return err
	}
	r.file, r.path = f, b.live.path
	st, err := f.Stat()
	if err != nil {
		tr.end(sp)
		return err
	}
	var opts []dataset.OpenOption
	if tr != nil {
		r.cfg.Metrics = obs.NewRegistry()
		opts = append(opts, dataset.WithMetrics(r.cfg.Metrics))
	}
	r.src, err = dataset.Open(f, st.Size(), opts...)
	tr.end(sp)
	if err != nil {
		return err
	}
	r.meta = r.src.Meta()
	r.cfg.Start, r.cfg.End = simnet.FromUnix(r.meta.StartUnix), simnet.FromUnix(r.meta.EndUnix)
	sp = tr.begin("scenario.parse", r.setup)
	r.spec, err = scenario.Parse(r.meta.SpecJSON)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("dataset spec: %w", err)
	}
	sp = tr.begin("scenario.topology", r.setup)
	r.topo, err = r.spec.Topology(r.meta.Clients, r.meta.Websites)
	tr.end(sp)
	return err
}

// run is the timed part: from the first transaction or record to the
// last artifact byte and the closed dataset.
func (b *bench) run(r *rep, tr *tracer) error {
	r.wall = tr.begin("wall", 0)
	defer tr.end(r.wall)
	var err error
	switch b.w.engine {
	case fastEngine:
		err = b.runFast(r, tr)
	case packetEngine:
		err = b.runPacket(r, tr)
	default:
		err = b.runOffline(r, tr)
	}
	if err != nil {
		return err
	}
	if r.file != nil {
		sp := tr.begin("dataset.close", r.wall)
		err = r.file.Close()
		r.file = nil
		tr.end(sp)
	}
	return err
}

// timeEvery is the sampling period of the traced run's per-record
// timings: timing every call would double the cost of the cheap ones.
const timeEvery = 16

// clockCost is what one time.Now call costs here; a timed call's
// duration includes about one of them.
var clockCost = func() time.Duration {
	const n = 1000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		time.Now()
	}
	return time.Since(t0) / n
}()

// shardStat is one shard's record-callback census in a traced run.
type shardStat struct {
	calls, timed int64
	add, observe time.Duration // over the timed calls
	last         time.Time
	fails        []measure.Record
}

// visit feeds one record to the shard's accumulator and sink (may be
// nil), timing every timeEvery-th call and keeping failure records for
// the per-pass replay.
func (st *shardStat) visit(a *core.Analysis, sink *dataset.Sink, rec *measure.Record) {
	if rec.Failed() {
		st.fails = append(st.fails, *rec)
	}
	if st.calls++; st.calls%timeEvery != 0 {
		a.Add(rec)
		if sink != nil {
			sink.Observe(rec)
		}
		return
	}
	t0 := time.Now()
	a.Add(rec)
	t1 := time.Now()
	st.add += t1.Sub(t0)
	if sink != nil {
		sink.Observe(rec)
		t2 := time.Now()
		st.observe += t2.Sub(t1)
		t1 = t2
	}
	st.timed++
	st.last = t1
}

func (b *bench) runFast(r *rep, tr *tracer) error {
	var (
		dw    *dataset.Writer
		sinks []*dataset.Sink
		err   error
	)
	if b.w.save {
		sp := tr.begin("dataset.create", r.wall)
		dw, err = b.createDataset(r, tr != nil)
		tr.end(sp)
		if err != nil {
			return err
		}
		sinks = make([]*dataset.Sink, len(r.accs))
		for i := range sinks {
			sinks[i] = dw.NewSink()
		}
	}
	// Sink.Observe errors are sticky: Close reports them.
	visit := func(s int, rec *measure.Record) {
		r.accs[s].Add(rec)
		if sinks != nil {
			sinks[s].Observe(rec)
		}
	}
	stats := make([]shardStat, len(r.accs))
	if tr != nil {
		visit = func(s int, rec *measure.Record) {
			var sink *dataset.Sink
			if sinks != nil {
				sink = sinks[s]
			}
			stats[s].visit(r.accs[s], sink, rec)
		}
	}
	sp := tr.begin("measure.run", r.wall)
	started := time.Now()
	err = measure.RunParallel(r.cfg, len(r.accs), visit)
	tr.end(sp)
	if tr != nil {
		b.foldShardStats(r, tr, sp, started, stats)
	}
	if err != nil {
		return err
	}

	sp = tr.begin("core.merge", r.wall)
	for _, acc := range r.accs {
		if err = r.a.Merge(acc); err != nil {
			break
		}
	}
	tr.end(sp)
	r.accs = nil
	if err != nil {
		return err
	}
	if sinks != nil {
		sp = tr.begin("dataset.close_sinks", r.wall)
		for _, s := range sinks {
			if err = s.Close(); err != nil {
				break
			}
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	b.render(r, tr)
	if dw != nil {
		sp = tr.begin("dataset.close", r.wall)
		err = dw.Close()
		r.stored = dw.Stored()
		if cerr := r.file.Close(); err == nil {
			err = cerr
		}
		r.file = nil
		tr.end(sp)
	}
	return err
}

// foldShardStats turns the traced run's per-record timings into
// aggregated spans under the run span.
func (b *bench) foldShardStats(r *rep, tr *tracer, runSpan int, started time.Time, stats []shardStat) {
	var add, observe time.Duration
	var calls int64
	for i := range stats {
		st := &stats[i]
		calls += st.calls
		if st.timed > 0 {
			// Take the clock's own cost out of each timed call, then
			// scale the sampled timings up to every call.
			scale := float64(st.calls) / float64(st.timed)
			clock := clockCost * time.Duration(st.timed)
			add += time.Duration(float64(max(st.add-clock, 0)) * scale)
			observe += time.Duration(float64(max(st.observe-clock, 0)) * scale)
			r.shardBusy = append(r.shardBusy, st.last.Sub(started))
		}
		r.failRecs = append(r.failRecs, st.fails...)
	}
	tr.aggregate("core.add", runSpan, add, calls)
	if b.w.save {
		tr.aggregate("dataset.observe", runSpan, observe, calls)
	}
}

func (b *bench) createDataset(r *rep, traced bool) (*dataset.Writer, error) {
	r.path = filepath.Join(b.dir, fmt.Sprintf("%s-seed%d-rep%d.wfds", b.w.name, b.seed, r.id))
	f, err := os.Create(r.path)
	if err != nil {
		return nil, err
	}
	r.file = f
	opts := dataset.Options{}
	if traced {
		opts.Metrics = r.cfg.Metrics
	}
	return dataset.NewWriter(f, measure.DatasetMeta{
		Seed: scenarioSeed, RunSeed: b.seed, StartUnix: r.cfg.Start.Unix(), EndUnix: r.cfg.End.Unix(),
		Clients: len(r.topo.Clients), Websites: len(r.topo.Websites),
		Scenario: r.spec.Name, SpecHash: r.spec.Hash(), SpecJSON: r.spec.CanonicalJSON(),
	}, opts)
}

func (b *bench) runPacket(r *rep, tr *tracer) error {
	visit := r.a.Add
	var st shardStat
	if tr != nil {
		visit = func(rec *measure.Record) { st.visit(r.a, nil, rec) }
	}
	onCapture := func(c measure.CaptureResult) { r.capPackets += int64(c.Packets) }
	sp := tr.begin("measure.packet_run", r.wall)
	started := time.Now()
	err := measure.RunPacketWithCapture(r.cfg, []string{r.topo.Clients[0].Name}, visit, onCapture)
	tr.end(sp)
	if tr != nil {
		b.foldShardStats(r, tr, sp, started, []shardStat{st})
	}
	if err != nil {
		return err
	}
	b.render(r, tr)
	return nil
}

func (b *bench) runOffline(r *rep, tr *tracer) error {
	start, end := r.cfg.Start, r.cfg.End
	sp := tr.begin("core.ingest", r.wall)
	a, err := core.ConsumeParallelOpts(r.topo, start, end, r.src, core.IngestOptions{Shards: b.w.shards, Metrics: r.cfg.Metrics})
	tr.end(sp)
	if err != nil {
		return err
	}
	r.a = a
	// webfail-analyze's listing pass: one more decode of every record.
	sp = tr.begin("dataset.scan", r.wall)
	err = dataset.AllRecords(r.src, func(*measure.Record) error {
		r.scanned++
		return nil
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	r.stored = r.src.Stored()
	sp = tr.begin("scenario.params", r.wall)
	params, err := r.spec.Params(r.meta.Seed, start, end)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("workload.build_scenario", r.wall)
	r.sc = workload.BuildScenario(r.topo, params)
	tr.end(sp)
	b.render(r, tr)
	return nil
}

// render writes every artifact into the repetition's artifact block.
func (b *bench) render(r *rep, tr *tracer) {
	sp := tr.begin("report.render", r.wall)
	var buf bytes.Buffer
	rp := &report.Reporter{W: &buf, A: r.a, Topo: r.topo, Sc: r.sc, Seed: r.sc.Params.Seed}
	rp.Run(nil)
	tr.end(sp)
	r.artifacts = buf.Bytes()
}

// check applies the per-repetition correctness checks.
func (b *bench) check(r *rep) error {
	if b.w.engine == offlineEngine {
		live := b.live
		switch {
		case r.stored != live.stored || r.scanned != live.stored:
			return fmt.Errorf("offline: %d stored / %d scanned records, live run stored %d", r.stored, r.scanned, live.stored)
		case r.a.TotalTxns() != live.stored:
			return fmt.Errorf("offline: ingested %d records, dataset stores %d", r.a.TotalTxns(), live.stored)
		}
		for _, name := range failureOnlyArtifacts {
			if !bytes.Equal(section(r.artifacts, name), section(live.artifacts, name)) {
				return fmt.Errorf("offline: artifact %s differs from the live run", name)
			}
		}
	} else {
		reg := r.cfg.Metrics
		txns := reg.Counter("measure_txns_total").Value()
		skipped := reg.Counter("measure_txns_skipped_total").Value()
		fails := reg.Counter("measure_failures_total").Value()
		switch {
		case txns+skipped != b.expected:
			return fmt.Errorf("simulated %d+%d skipped transactions, schedule has %d", txns, skipped, b.expected)
		case r.a.TotalTxns() != txns || r.a.TotalFails() != fails:
			return fmt.Errorf("analysis saw %d txns / %d failures, engine reports %d / %d", r.a.TotalTxns(), r.a.TotalFails(), txns, fails)
		case b.w.save && r.stored != fails:
			return fmt.Errorf("dataset stores %d records, analysis counts %d failures", r.stored, fails)
		}
	}
	d := artifactDigest(r.artifacts)
	if b.digest == "" {
		b.digest = d
	} else if d != b.digest {
		return fmt.Errorf("artifact digest %s differs from the first repetition's %s", d[:12], b.digest[:12])
	}
	return nil
}
