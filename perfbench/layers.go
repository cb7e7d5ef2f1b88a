package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/faults"
	"webfail/internal/measure"
	"webfail/internal/report"
	"webfail/internal/workload"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of webfail sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"txns_per_s", "1/s"},
	{"records_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module. A layer the
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.compile_s", "s"},
		{"workload.build_scenario_s", "s"},
		{"faults.episodes", "count"},
		{"faults.episodes_scanned_per_txn", "count"},
		{"faults.lookup_ns", "ns"},
		{"faults.lookup_hit_ratio", "ratio"},
		{"measure.sim_self_s", "s"},
		{"measure.ns_per_txn", "ns"},
		{"measure.skipped_txns", "count"},
		{"measure.shard_skew", "ratio"},
		{"measure.packet_run_s", "s"},
		{"core.add_s", "s"},
		{"core.add_ns_per_record", "ns"},
		{"core.merge_s", "s"},
		{"core.state_cells", "count"},
		{"core.ingest_s", "s"},
	}
	for _, p := range core.AllPasses() {
		defs = append(defs, metricDef{"core.add_ns." + string(p), "ns"})
	}
	defs = append(defs,
		metricDef{"core.offline_artifact_diff_lines", "count"},
		metricDef{"dataset.observe_s", "s"},
		metricDef{"dataset.close_s", "s"},
		metricDef{"dataset.bytes_per_record", "B"},
		metricDef{"dataset.scan_s", "s"},
		metricDef{"dataset.decode_records_per_s", "1/s"},
		metricDef{"report.render_s", "s"},
	)
	for _, a := range report.KnownArtifacts() {
		defs = append(defs, metricDef{"report.render_s." + a, "s"})
	}
	return append(defs,
		metricDef{"simnet.events", "count"},
		metricDef{"simnet.events_per_s", "1/s"},
		metricDef{"trace.capture_packets", "count"},
		metricDef{"trace.postprocess_s", "s"},
		metricDef{"obs.trace_overhead_frac", "frac"},
		metricDef{"layers.unaccounted_frac", "frac"},
		metricDef{"bench.run_fail_frac", "frac"},
	)
}()

// spanLayers reads one traced repetition's per-layer metrics from its
// spans and its obs registry.
func (b *bench) spanLayers(r *rep, tr *tracer) map[string]float64 {
	m := map[string]float64{
		"scenario.compile_s":        tr.seconds("scenario.resolve") + tr.seconds("scenario.parse") + tr.seconds("scenario.topology") + tr.seconds("scenario.params"),
		"workload.build_scenario_s": tr.seconds("workload.build_scenario"),
		"faults.episodes":           float64(r.sc.Timeline.Len()),
		"core.merge_s":              tr.seconds("core.merge"),
		"core.state_cells":          float64(r.a.StateCells()),
		"core.ingest_s":             tr.seconds("core.ingest"),
		"dataset.observe_s":         tr.seconds("dataset.observe"),
		"dataset.close_s":           tr.seconds("dataset.close_sinks") + tr.seconds("dataset.close"),
		"dataset.scan_s":            tr.seconds("dataset.scan"),
		"report.render_s":           tr.seconds("report.render"),
		"measure.packet_run_s":      tr.seconds("measure.packet_run"),
		"measure.shard_skew":        skew(r.shardBusy),
		"trace.capture_packets":     float64(r.capPackets),
	}
	reg := r.cfg.Metrics
	txns := float64(reg.Counter("measure_txns_total").Value())
	m["measure.skipped_txns"] = float64(reg.Counter("measure_txns_skipped_total").Value())
	m["simnet.events"] = float64(reg.Counter("simnet_events_dispatched_total").Value())
	if txns > 0 {
		m["faults.episodes_scanned_per_txn"] = float64(reg.Counter("measure_episodes_scanned_total").Value()) / txns
	}
	for _, name := range []string{"measure.run", "measure.packet_run"} {
		if s := tr.find(name); s != nil {
			self := tr.selfTime(s.ID)
			m["measure.sim_self_s"] = self.Seconds()
			m["measure.ns_per_txn"] = float64(self.Nanoseconds()) / txns
		}
	}
	if s := tr.find("core.add"); s != nil {
		m["core.add_s"] = s.dur().Seconds()
		m["core.add_ns_per_record"] = float64(s.dur().Nanoseconds()) / float64(s.Calls)
	}
	if p := m["measure.packet_run_s"]; p > 0 {
		m["simnet.events_per_s"] = m["simnet.events"] / p
	}
	// The dataset's own counters: chunk payload bytes per record, as
	// written (paper-month) or read (offline-analyze).
	for _, dir := range []string{"written", "read"} {
		if n := reg.Counter("dataset_records_" + dir + "_total").Value(); n > 0 {
			m["dataset.bytes_per_record"] = float64(reg.Counter("dataset_bytes_"+dir+"_total").Value()) / float64(n)
		}
	}
	if s := m["dataset.scan_s"]; s > 0 {
		m["dataset.decode_records_per_s"] = float64(r.scanned) / s
	}
	if w := tr.find("wall"); w != nil {
		m["layers.unaccounted_frac"] = tr.selfTime(w.ID).Seconds() / w.dur().Seconds()
	}
	if b.live != nil {
		m["core.offline_artifact_diff_lines"] = float64(diffLines(b.live.artifacts, r.artifacts))
	}
	return m
}

// skew is the slowest shard's busy span over the mean.
func skew(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return 0
	}
	var sum, hi time.Duration
	for _, d := range busy {
		sum += d
		hi = max(hi, d)
	}
	return float64(hi) * float64(len(busy)) / float64(sum)
}

// probe measures, from outside the program, the costs a single traced
// run cannot split: per analyzer pass, per artifact, fault lookups, the
// dataset decode, and capture post-processing. It runs once, on the
// last traced repetition.
func (b *bench) probe(r *rep, tr *tracer, m map[string]float64) error {
	root := tr.begin("probes", 0)
	defer tr.end(root)

	if b.w.engine != offlineEngine {
		sp := tr.begin("faults.lookup_probe", root)
		m["faults.lookup_ns"], m["faults.lookup_hit_ratio"] = b.probeFaults(r)
		tr.end(sp)
	}

	recs := r.failRecs
	if r.path != "" {
		sp := tr.begin("dataset.scan", root)
		var err error
		recs, err = loadRecords(r.path)
		tr.end(sp)
		if err != nil {
			return err
		}
		if b.w.engine != offlineEngine {
			m["dataset.scan_s"] = tr.get(sp).dur().Seconds()
			m["dataset.decode_records_per_s"] = float64(len(recs)) / m["dataset.scan_s"]
		}
	}
	b.probePasses(r, recs, tr, root, m)

	for _, art := range report.KnownArtifacts() {
		var buf bytes.Buffer
		rp := &report.Reporter{W: &buf, A: r.a, Topo: r.topo, Sc: r.sc, Seed: r.sc.Params.Seed}
		sp := tr.begin("report.render."+art, root)
		rp.Run(map[string]bool{art: true})
		tr.end(sp)
		m["report.render_s."+art] = tr.get(sp).dur().Seconds()
	}

	switch {
	case b.w.engine == fastEngine && b.w.save:
		sp := tr.begin("offline.reanalyze", root)
		off, err := b.reanalyze(r)
		tr.end(sp)
		if err != nil {
			return err
		}
		m["core.offline_artifact_diff_lines"] = float64(diffLines(r.artifacts, off))
		return b.probePacket(tr, root, m)
	}
	return nil
}

// packetLayers are the metrics only the packet engine moves.
var packetLayers = []string{"simnet.events", "simnet.events_per_s", "measure.packet_run_s", "trace.capture_packets"}

// probePacket runs one traced, checked repetition of packetProbe in the
// same world and reports the packet engine's layers, then what capture
// and its post-processing add to it.
func (b *bench) probePacket(tr *tracer, parent int, m map[string]float64) error {
	pb := &bench{w: &packetProbe, seed: b.seed, dir: b.dir}
	if err := pb.prepare(); err != nil {
		return err
	}
	tr.run++
	r, err := pb.newRep(tr)
	if err == nil {
		err = pb.run(r, tr)
	}
	if err == nil {
		err = pb.check(r)
	}
	if err != nil {
		return fmt.Errorf("packet probe: %w", err)
	}
	pl := pb.spanLayers(r, tr)
	for _, k := range packetLayers {
		m[k] = pl[k]
	}
	d, err := pb.probeCapture(r, tr, parent)
	if err != nil {
		return fmt.Errorf("packet probe: %w", err)
	}
	m["trace.postprocess_s"] = d
	return nil
}

// probeCapture returns what capture and its post-processing add to a
// packet run. Both happen inside the engine, so the cost is the median
// difference between runs with and without capture, run in pairs so
// that both sides of a pair see the same machine.
func (b *bench) probeCapture(r *rep, tr *tracer, parent int) (float64, error) {
	cfg := r.cfg
	cfg.Metrics = nil
	discard := func(*measure.Record) {}
	var diffs []float64
	for k := 0; k < 3; k++ {
		sp := tr.begin("measure.packet_run", parent)
		err := measure.RunPacketWithCapture(cfg, []string{r.topo.Clients[0].Name}, discard, func(measure.CaptureResult) {})
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp2 := tr.begin("measure.packet_run_nocapture", parent)
		err = measure.RunPacket(cfg, discard)
		tr.end(sp2)
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, tr.get(sp).dur().Seconds()-tr.get(sp2).dur().Seconds())
	}
	return median(diffs), nil
}

// probeFaults replays the run's transaction schedule through the
// timeline queries every fast-mode transaction makes (Lookup once per
// entity, then ActiveID per transaction), timing only the queries.
func (b *bench) probeFaults(r *rep) (nsPerLookup, hitRatio float64) {
	tl, topo := r.sc.Timeline, r.topo
	clientKinds := []faults.Kind{faults.ClientMachineOff, faults.ClientConnectivity}
	siteKinds := []faults.Kind{faults.ClientConnectivity, faults.LDNSOutage}
	wwwKinds := []faults.Kind{faults.AuthDNSMisconfig, faults.AuthDNSOutage, faults.ServerOutage, faults.ServerOverload, faults.ServerHTTPError}
	clientID := make([]faults.EntityID, len(topo.Clients))
	siteID := make([]faults.EntityID, len(topo.Clients))
	for i := range topo.Clients {
		c := &topo.Clients[i]
		clientID[i] = tl.Lookup(faults.Entity("client:" + c.Name))
		siteID[i] = tl.Lookup(faults.Entity("site:" + c.Site))
	}
	wwwID := make([]faults.EntityID, len(topo.Websites))
	for j := range topo.Websites {
		wwwID[j] = tl.Lookup(faults.Entity("www:" + topo.Websites[j].Host))
	}
	var (
		elapsed       time.Duration
		queries, hits int64
		batch         = make([]workload.Transaction, 0, 4096)
	)
	flush := func() {
		t0 := time.Now()
		for i := range batch {
			tx := &batch[i]
			for _, k := range clientKinds {
				if _, ok := tl.ActiveID(clientID[tx.ClientIdx], k, tx.At); ok {
					hits++
				}
			}
			for _, k := range siteKinds {
				if _, ok := tl.ActiveID(siteID[tx.ClientIdx], k, tx.At); ok {
					hits++
				}
			}
			for _, k := range wwwKinds {
				if _, ok := tl.ActiveID(wwwID[tx.SiteIdx], k, tx.At); ok {
					hits++
				}
			}
		}
		elapsed += time.Since(t0)
		queries += int64(len(batch) * (len(clientKinds) + len(siteKinds) + len(wwwKinds)))
		batch = batch[:0]
	}
	workload.ForEachTransaction(topo, b.seed, r.cfg.Start, r.cfg.End, func(tx *workload.Transaction) {
		if batch = append(batch, *tx); len(batch) == cap(batch) {
			flush()
		}
	})
	flush()
	if queries == 0 {
		return 0, 0
	}
	return float64(elapsed.Nanoseconds()) / float64(queries), float64(hits) / float64(queries)
}

// probePasses replays the stored (failure) records into one single-pass
// accumulator per analyzer pass (each also carries the always-on totals
// pass). Offline, where ingest hides Add and Merge, it also times an
// all-pass Add and the merge ConsumeParallelOpts finishes with.
func (b *bench) probePasses(r *rep, recs []measure.Record, tr *tracer, parent int, m map[string]float64) {
	if len(recs) == 0 {
		return
	}
	start, end := r.cfg.Start, r.cfg.End
	for _, p := range core.AllPasses() {
		var ds []float64
		for k := 0; k < 3; k++ {
			acc := core.NewAnalysisOpts(r.topo, start, end, core.Options{Passes: []core.PassName{p}})
			sp := tr.begin("core.add."+string(p), parent)
			for i := range recs {
				acc.Add(&recs[i])
			}
			tr.end(sp)
			ds = append(ds, float64(tr.get(sp).dur().Nanoseconds()))
		}
		m["core.add_ns."+string(p)] = median(ds) / float64(len(recs))
	}
	if b.w.engine == offlineEngine {
		acc := core.NewAnalysisOpts(r.topo, start, end, core.Options{})
		sp := tr.begin("core.add", parent)
		for i := range recs {
			acc.Add(&recs[i])
		}
		tr.end(sp)
		m["core.add_s"] = tr.get(sp).dur().Seconds()
		m["core.add_ns_per_record"] = float64(tr.get(sp).dur().Nanoseconds()) / float64(len(recs))
		merged := core.NewAnalysisOpts(r.topo, start, end, core.Options{})
		sp = tr.begin("core.merge", parent)
		err := merged.Merge(acc)
		tr.end(sp)
		if err == nil {
			m["core.merge_s"] = tr.get(sp).dur().Seconds()
		}
	}
}

// loadRecords decodes every stored record of a dataset into memory.
func loadRecords(path string) ([]measure.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	src, err := dataset.Open(f, st.Size())
	if err != nil {
		return nil, err
	}
	recs := make([]measure.Record, 0, src.Stored())
	err = dataset.AllRecords(src, func(rec *measure.Record) error {
		recs = append(recs, *rec)
		return nil
	})
	return recs, err
}

// reanalyze runs webfail-analyze's path over the dataset a live
// repetition saved and returns the artifacts it renders.
func (b *bench) reanalyze(r *rep) ([]byte, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	src, err := dataset.Open(f, st.Size())
	if err != nil {
		return nil, err
	}
	a, err := core.ConsumeParallelOpts(r.topo, r.cfg.Start, r.cfg.End, src, core.IngestOptions{Shards: b.w.shards})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	rp := &report.Reporter{W: &buf, A: a, Topo: r.topo, Sc: r.sc, Seed: r.sc.Params.Seed}
	rp.Run(nil)
	return buf.Bytes(), nil
}

// timingLine matches report lines carrying wall-clock figures, which the
// artifact digest ignores.
var timingLine = regexp.MustCompile(`(?i)completed in|elapsed|wall`)

// artifactDigest hashes an artifact block with timing lines stripped.
func artifactDigest(block []byte) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(string(block), "\n") {
		if !timingLine.MatchString(line) {
			h.Write([]byte(line))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// section returns one artifact's lines from a report block: from its
// "===== Table N:" or "===== Figure N:" header to the next header.
func section(block []byte, artifact string) []byte {
	var title string
	switch {
	case strings.HasPrefix(artifact, "table"):
		title = "===== Table " + strings.TrimPrefix(artifact, "table") + ":"
	case strings.HasPrefix(artifact, "fig"):
		title = "===== Figure " + strings.TrimPrefix(artifact, "fig") + ":"
	}
	i := bytes.Index(block, []byte(title))
	if title == "" || i < 0 {
		return nil
	}
	rest := block[i+len(title):]
	if j := bytes.Index(rest, []byte("\n=====")); j >= 0 {
		rest = rest[:j]
	}
	return block[i : i+len(title)+len(rest)]
}

// diffLines counts the lines of a and b that have no counterpart in the
// other, as a multiset: the size of a line diff that ignores order.
func diffLines(a, b []byte) int {
	count := map[string]int{}
	for _, l := range strings.Split(string(a), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(string(b), "\n") {
		count[l]--
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
