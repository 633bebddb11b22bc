package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"annotadb"
	"annotadb/internal/correlate"
	"annotadb/internal/httpapi"
	"annotadb/internal/shard"
)

// report is the run's full record: metadata, the final state of the data,
// diagnostics, and every correctness failure. It is printed on the line
// before the result and stored under .bench_build/results.
type report struct {
	Meta        runMeta            `json:"meta"`
	Final       finalState         `json:"final_state"`
	Counts      map[string]int     `json:"samples"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	SSE         *sseStats          `json:"sse,omitempty"`
	Attribution []attribution      `json:"attribution,omitempty"`
	SetupsS     []float64          `json:"setups_s"`
	ReopensS    []float64          `json:"reopens_s"`
	Failures    []string           `json:"failures,omitempty"`
}

// finalState is where the data ended: a drift in it that moves latency
// shows here.
type finalState struct {
	Tuples      int `json:"tuples"`
	Rules       int `json:"rules"`
	Attachments int `json:"attachments"`
}

// phase is what the timed phase of a run observed.
type phase struct {
	samples []sample
	window  time.Duration
	// windowStart is when the measured window opened (ns since the epoch).
	windowStart int64
	st0, st1    annotadb.ServerStats
	du0, du1    *annotadb.DurabilityStats
	cs0, cs1    annotadb.CorrelateStats
	sse         *sseStats
	delivery    []time.Duration // traced run: churn event ack-to-receipt times
	loopback    []time.Duration // traced run: empty-handler round trips
	final       finalState
}

func run(cfg config) (*result, *report, error) {
	s := workloads[cfg.workload]
	rep := &report{Meta: meta(cfg, s), Diagnostics: map[string]float64{}, Counts: map[string]int{}}
	c, err := newCorpus(s, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	tmp := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	epoch := time.Now()
	total0, steal0 := cpuTimes()
	defer func() {
		// The hypervisor's share of this VM's CPU time during the run: a
		// run whose steal is high measured a busy host, not the program.
		total1, steal1 := cpuTimes()
		if total1 > total0 {
			rep.Diagnostics["host.cpu_steal_ratio"] = float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	chk := &checks{}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{epoch: epoch}
	}
	idle := idleLag(s, cfg.seed)
	rep.Diagnostics["load.idle_send_lag_p50_ms"] = ms(quantile(idle, 0.5))
	rep.Diagnostics["load.idle_send_lag_p99_ms"] = ms(quantile(idle, 0.99))

	// Set-up, each time on a fresh directory: one untimed cold boot (the
	// first touch of the heap and the page cache), then half of the timed
	// boots, the last of which serves the timed phase. The other half runs
	// after the crash phase, so a burst of host noise reaches only some of
	// them.
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.middleware
	}
	cold, _, err := setUps(s, c, runDir, 0, 1, wrap, false)
	if err != nil {
		return nil, nil, err
	}
	rep.Diagnostics["cold_setup_s"] = cold[0].Seconds()
	early := s.Setups / 2
	setups, dep, err := setUps(s, c, runDir, 1, early, wrap, true)
	if err != nil {
		return nil, nil, err
	}

	planners, err := newPlanners(s, c, cfg.seed)
	if err != nil {
		_ = dep.close()
		return nil, nil, err
	}
	window := time.Duration(cfg.seconds) * time.Second
	ph, err := timedPhase(s, dep, planners, epoch, window, chk, tr)
	closeErr := dep.close()
	if err != nil {
		return nil, nil, err
	}
	if closeErr != nil {
		return nil, nil, fmt.Errorf("close: %w", closeErr)
	}
	rep.Final = ph.final
	rep.SSE = ph.sse
	if err := os.MkdirAll(filepath.Join(cfg.root, ".bench_build", "results"), 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSamples(cfg, ph.samples); err != nil {
		return nil, nil, fmt.Errorf("write samples: %w", err)
	}

	cr, err := crashPhase(s, c, dep.dir, runDir, firstWriter(s, planners), chk)
	if err != nil {
		return nil, nil, fmt.Errorf("crash phase: %w", err)
	}

	late, _, err := setUps(s, c, runDir, 1+early, s.Setups-early, wrap, false)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, late...)

	res := &result{Metrics: map[string]metric{}}
	for _, smp := range ph.samples {
		if smp.measured {
			res.Attempted++
			rep.Counts[classNames[smp.cls]]++
			if smp.failed {
				res.Failed++
			}
		}
	}
	m := &metricSet{out: res.Metrics}
	lat := latencies(ph.samples, s.Closed, func(smp *sample) bool { return smp.measured })
	for cl := class(0); cl < numClasses; cl++ {
		rep.Diagnostics[classNames[cl]+"_p99_ms"] = ms(quantile(lat[cl], 0.99))
		rep.Diagnostics[classNames[cl]+"_max_ms"] = ms(quantile(lat[cl], 1))
	}
	rep.Diagnostics["error_ratio"] = float64(res.Failed) / float64(max(1, res.Attempted))
	rep.Diagnostics["clean_reopen_s"] = cr.clean.Seconds()
	for _, d := range setups {
		rep.SetupsS = append(rep.SetupsS, d.Seconds())
	}
	for _, d := range cr.reopens {
		rep.ReopensS = append(rep.ReopensS, d.Seconds())
	}
	rep.Diagnostics["wal.checkpoints_in_window"] = float64(ph.du1.Checkpoints - ph.du0.Checkpoints)
	if ph.sse != nil && len(ph.sse.deliveries) > 0 {
		rep.Diagnostics["sse.delivery_p50_ms"] = ms(median(ph.sse.deliveries))
	}
	// The end-to-end metrics. A traced run reports them too, prefixed
	// "trace.": their difference from an untraced run of the same seed is
	// the tracing overhead.
	prefix := ""
	if cfg.trace {
		prefix = "trace."
	}
	m.set(prefix+"setup_s", median(setups).Seconds(), "s", len(setups))
	for cl := class(0); cl < numClasses; cl++ {
		m.set(prefix+classNames[cl]+"_p50_ms", ms(quantile(lat[cl], 0.5)), "ms", len(lat[cl]))
	}
	m.set(prefix+"write_updates_per_s", float64(ackedUpdates(ph.samples, true))/ph.writeSpan(s.Closed).Seconds(), "updates/s", 1)
	// Crash recovery time depends on the seed's data (the same seed
	// repeats within a few percent; seeds differ by up to a third), which
	// no bound the benchmark may set covers. It is reported, not gated:
	// among the diagnostics here and as trace.recovery_s per layer.
	rep.Diagnostics["recovery_s"] = median(cr.reopens).Seconds()
	if cfg.trace {
		m.set("trace.recovery_s", median(cr.reopens).Seconds(), "s", len(cr.reopens))
		if err := layerMetrics(s, c, cfg, runDir, ph, cr, tr, m, rep); err != nil {
			return nil, nil, err
		}
		if err := tr.write(filepath.Join(cfg.root, ".bench_build", "results",
			fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	if m.err != nil {
		return nil, nil, m.err
	}
	rep.Failures = chk.failures
	for kind, n := range chk.counts {
		rep.Diagnostics["check."+kind] = float64(n)
	}
	res.Correct = chk.ok()
	return res, rep, nil
}

// setUps boots the deployment n times, on the fresh data directories
// data-<first>... under runDir, and returns the boot times. With keep the
// last deployment is returned running; every other one is closed and its
// directory removed.
func setUps(s spec, c *corpus, runDir string, first, n int, wrap func(http.Handler) http.Handler, keep bool) ([]time.Duration, *deployment, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("data-%d", first+i))
		d, dt, err := deploy(s, c, dir, wrap)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, dt)
		if keep && i == n-1 {
			return times, d, nil
		}
		if err := d.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	return times, nil, nil
}

// metricSet fills the result's metrics, refusing values measured from no
// samples.
type metricSet struct {
	out map[string]metric
	err error
}

func (m *metricSet) set(name string, v float64, unit string, n int) {
	if n == 0 && m.err == nil {
		m.err = fmt.Errorf("metric %s: no samples", name)
	}
	m.out[name] = metric{Value: v, Unit: unit}
}

// latencies groups the selected successful samples' latencies by class.
func latencies(samples []sample, closed bool, keep func(*sample) bool) [numClasses][]time.Duration {
	var out [numClasses][]time.Duration
	for i := range samples {
		smp := &samples[i]
		if keep(smp) && !smp.failed && smp.status == 200 {
			out[smp.cls] = append(out[smp.cls], smp.latency(closed))
		}
	}
	return out
}

// writeSpan is the time the measured writes took: the window in closed
// loop; in open loop, from the window's start until the last measured
// write was answered, so a server that falls behind the offered rate
// stretches it.
func (ph *phase) writeSpan(closed bool) time.Duration {
	if closed {
		return ph.window
	}
	span := ph.window
	for _, smp := range ph.samples {
		if smp.measured && smp.updates > 0 {
			span = max(span, time.Duration(smp.done-ph.windowStart))
		}
	}
	return span
}

// ackedUpdates counts the attachments, detachments and appended tuples of
// acknowledged writes (only measured ones when measuredOnly).
func ackedUpdates(samples []sample, measuredOnly bool) int {
	n := 0
	for _, smp := range samples {
		if (smp.measured || !measuredOnly) && !smp.failed && smp.status == 200 {
			n += smp.updates
		}
	}
	return n
}

func newPlanners(s spec, c *corpus, seed int64) ([]*planner, error) {
	idx, writers := writerIndexes(s)
	ps := make([]*planner, len(s.Groups))
	for i := range s.Groups {
		p, err := newPlanner(s, c, seed, i, idx[i], writers)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

func firstWriter(s spec, ps []*planner) *planner {
	for i, g := range s.Groups {
		if g.Mix.Annotate > 0 {
			return ps[i]
		}
	}
	return nil
}

// idleLag runs a Poisson schedule at the workload's highest connection
// rate with no requests: the generator's own lateness with the server
// idle.
func idleLag(s spec, seed int64) []time.Duration {
	rate := 300.0
	for _, g := range s.Groups {
		rate = max(rate, g.Rate)
	}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	var due time.Duration
	out := make([]time.Duration, 0, 150)
	for len(out) < cap(out) {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		t := start.Add(due)
		waitUntil(t)
		out = append(out, time.Since(t))
	}
	return out
}

// timedPhase runs the warm-up and the measured window on every connection
// at once.
func timedPhase(s spec, dep *deployment, planners []*planner, epoch time.Time, window time.Duration, chk *checks, tr *tracer) (*phase, error) {
	ph := &phase{window: window}
	primaryMark, followerMark, acked := &seqMark{}, &seqMark{}, &seqMark{}
	var acks *ackLog
	if s.SSEResume > 0 || tr != nil {
		acks = &ackLog{}
	}
	var nextID atomic.Uint64
	readSrv := dep.readServer()
	conns := make([]*conn, len(s.Groups))
	for i, g := range s.Groups {
		ep := dep.target(g)
		mark := primaryMark
		if g.Follower {
			mark = followerMark
		}
		conns[i] = &conn{
			idx: i, hc: newHTTPClient(), base: ep.url, mark: mark, acked: acked,
			barrier: g.Follower, chk: chk, traced: tr != nil, epoch: epoch, acks: acks, nextID: &nextID,
		}
	}
	// Open-loop schedules are rendered to HTTP before the clock starts.
	// Every planned op is sent, the first one past the window included, so
	// the planners' annotation models stay exact.
	var schedules [][]request
	if !s.Closed {
		schedules = make([][]request, len(s.Groups))
		for i, p := range planners {
			p.schedule(warmup + window)
			for {
				o := p.next()
				schedules[i] = append(schedules[i], render(o))
				if o.due >= warmup+window {
					break
				}
			}
		}
	}
	ph.st0, ph.du0, ph.cs0 = dep.primary.srv.Stats(), dep.primary.srv.Durability(), readSrv.CorrelateStats()

	ctx, stop := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	if s.SSEResume > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			ph.sse = subscribe(ctx, dep.primary.url, s.SSEResume, acks, epoch, chk)
		}()
	}
	if tr != nil {
		bg.Add(2)
		go func() {
			defer bg.Done()
			probe(ctx, tr, readSrv, planners[0].c, chk)
		}()
		sub, err := dep.primary.srv.Subscribe(ctx, annotadb.SubscribeOptions{Buffer: 4096})
		if err != nil {
			stop()
			bg.Wait()
			return nil, err
		}
		go func() {
			defer bg.Done()
			ph.delivery = deliveries(sub, acks, epoch)
		}()
	}

	runtime.GC() // start the window without the set-up's garbage
	start := time.Now().Add(20 * time.Millisecond)
	ph.windowStart = int64(start.Add(warmup).Sub(epoch))
	results := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if s.Closed {
				results[i] = runClosed(conns[i], planners[i], start, warmup, window)
			} else {
				results[i] = runOpen(conns[i], schedules[i], start, warmup, window)
			}
		}(i)
	}
	wg.Wait()
	stop()
	bg.Wait()
	ph.st1, ph.du1, ph.cs1 = dep.primary.srv.Stats(), dep.primary.srv.Durability(), readSrv.CorrelateStats()
	for _, cn := range conns {
		cn.hc.CloseIdleConnections()
	}
	for i, r := range results {
		ph.samples = append(ph.samples, r...)
		ph.loopback = append(ph.loopback, conns[i].loopback...)
	}
	if tr != nil {
		for _, smp := range ph.samples {
			if smp.traced && !smp.failed {
				tr.addClient(smp)
			}
		}
	}
	ph.final = finalState{Tuples: ph.st1.Tuples, Rules: ph.st1.RuleCount, Attachments: ph.st1.Attachments}
	want := ph.st0.Attachments
	for _, smp := range ph.samples {
		if !smp.failed && smp.status == 200 {
			want += smp.attached
		}
	}
	if ph.st1.Attachments != want {
		chk.fail("lost_update", "the relation holds %d attachments after the phase, want %d", ph.st1.Attachments, want)
	}
	return ph, nil
}

// probe makes the traced run's direct read calls on the server the
// workload reads from while the load runs, so they see the generations
// (and correlate cache state) the load sees: the facade's
// Server.RecommendAt and Server.Correlate, and both read classes through an
// instance of the production httpapi handler of its own, called in-process
// with no listener or client.
func probe(ctx context.Context, tr *tracer, srv *annotadb.Server, c *corpus, chk *checks) {
	rng := rand.New(rand.NewSource(1))
	h := httpapi.New(srv, ctx)
	serve := func(o op) {
		r := render(o)
		req := httptest.NewRequest(r.method, r.path, nil)
		rec := httptest.NewRecorder()
		tr.call("httpapi.direct."+classRoutes[o.cls], func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			chk.fail("probe", "%s: status %d: %s", o, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	tick := time.NewTicker(50 * time.Millisecond) // sparse: faster probing perturbs the load's own latencies
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		tuple, anchor := rng.Intn(len(c.base)), c.anchors[rng.Intn(len(c.anchors))]
		switch i % 4 {
		case 0:
			tr.call("annotadb.recommend", func() { _, _, _ = srv.RecommendAt(tuple) })
		case 1:
			q, _ := correlate.ParseQuery(anchor, "10", "")
			tr.call("annotadb.correlate", func() { _, _, _ = srv.Correlate(q.Anchor, q.K, q.MinLift) })
		case 2:
			serve(op{cls: clsRecommend, tuple: tuple})
		default:
			serve(op{cls: clsCorrelate, anchor: anchor})
		}
	}
}

// deliveries times each churn event from the acknowledgement of the write
// that produced it to its receipt by an in-process subscriber.
func deliveries(events <-chan annotadb.Event, acks *ackLog, epoch time.Time) []time.Duration {
	type got struct {
		shard int
		seqs  []uint64
		at    int64
	}
	var all []got
	for ev := range events {
		seqs := ev.SeqVector
		if seqs == nil {
			seqs = []uint64{ev.Seq}
		}
		all = append(all, got{ev.Shard, seqs, int64(time.Since(epoch))})
	}
	var out []time.Duration
	for _, g := range all {
		if g.shard < len(g.seqs) {
			if at, ok := acks.ackedAt(g.shard, g.seqs[g.shard]); ok {
				out = append(out, time.Duration(g.at-at))
			}
		}
	}
	return out
}

// crashResult is what the crash phase measured.
type crashResult struct {
	clean             time.Duration
	reopens           []time.Duration
	records           int
	logBytesPerUpdate float64
}

// crashPhase restarts the run's data directory cleanly, applies K seeded
// batches, images the directory as a crash would leave it, and reopens the
// image several times: each reopen must replay exactly the K batches'
// records and serve the rules served before the crash, and the last one
// must pass a full re-mine check.
func crashPhase(s spec, c *corpus, dir, runDir string, p *planner, chk *checks) (*crashResult, error) {
	cr := &crashResult{}
	start := time.Now()
	ep, _, _, err := openPrimary(s, c, dir, 0, nil)
	if err != nil {
		return nil, err
	}
	cr.clean = time.Since(start)
	du0 := ep.srv.Durability()
	ctx := context.Background()
	updates := 0
	for k := 0; k < s.CrashBatches; k++ {
		o := p.annotate()
		batch := make([]annotadb.AnnotationUpdate, len(o.updates))
		shards := map[int]bool{}
		for i, u := range o.updates {
			batch[i] = annotadb.AnnotationUpdate{Tuple: u.Tuple, Annotation: u.Annotation}
			shards[shard.ShardOf(u.Annotation, s.Shards)] = true
		}
		var r annotadb.UpdateReport
		if o.remove {
			r, err = ep.srv.RemoveAnnotations(ctx, batch)
		} else {
			r, err = ep.srv.AddAnnotations(ctx, batch)
		}
		if err != nil {
			_ = ep.close()
			return nil, err
		}
		if r.Applied != len(batch) {
			chk.fail("lost_update", "crash batch %d applied %d of %d", k, r.Applied, len(batch))
		}
		cr.records += len(shards)
		updates += len(batch)
	}
	du1 := ep.srv.Durability()
	cr.logBytesPerUpdate = float64(du1.LogBytes-du0.LogBytes) / float64(updates)
	want := ruleText(ep.srv.Rules())
	image := filepath.Join(runDir, "crash-image")
	if err := copyDir(dir, image); err != nil {
		_ = ep.close()
		return nil, err
	}
	if err := ep.close(); err != nil {
		return nil, err
	}
	for r := 0; r < s.Reopens; r++ {
		rd := filepath.Join(runDir, fmt.Sprintf("reopen-%d", r))
		if err := copyDir(image, rd); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		ep, eng, rec, err := openPrimary(s, c, rd, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("reopen crash image: %w", err)
		}
		cr.reopens = append(cr.reopens, time.Since(start))
		if !rec.FromCheckpoint || rec.RecordsReplayed != cr.records {
			chk.fail("crash_replay", "reopen replayed %d records, want %d (from checkpoint: %v)", rec.RecordsReplayed, cr.records, rec.FromCheckpoint)
		}
		if got := ruleText(ep.srv.Rules()); got != want {
			chk.fail("crash_rules", "reopened image serves %d rule bytes, want %d", len(got), len(want))
		}
		if r == s.Reopens-1 {
			if err := eng.Verify(); err != nil {
				chk.fail("remine", "reopened data dir fails the full re-mine check: %v", err)
			}
		}
		if err := ep.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(rd); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

func ruleText(rs []annotadb.Rule) string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// cpuTimes returns the aggregate CPU time and steal time counters of
// /proc/stat, or zeros where there is no such file.
func cpuTimes() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
