package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"annotadb"
	"annotadb/internal/correlate"
	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/predict"
	"annotadb/internal/relation"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/stream"
	"annotadb/internal/wal"
	"annotadb/internal/workload"
)

// Replay sizes of the traced run's direct layer calls.
const (
	replayWrites   = 200 // seeded write batches replayed through the layers
	replicaWrites  = 40  // of which replayed through a primary and follower
	evalsPerGen    = 5   // predict evaluations per replayed generation
	topKPerIndex   = 5   // correlate queries per built index
	checkpointRuns = 3
	projectRuns    = 3
	projectShards  = 4 // sharded-mixed's shard count
)

// attribution checks one request class's traced p50 against parts timed
// independently of its request spans: the generator's lag (open loop only;
// the p50 of the class's send minus due), a round trip to an empty handler
// on the same connections (loopback, net/http and the client), and the
// server's part. For reads that is the production handler called
// in-process by the probe (httpapi and every layer below it); for writes
// it is the sum of the serving writer's own queue, apply (which holds the
// WAL fsync) and publish stage p50s from /stats (histogram buckets, so
// within 25%). Closure is their sum over the p50:
// below 1, the load costs the requests something none of the parts shows;
// above 1, a part is slower on its own than inside the requests. Facade is
// the direct facade call for reads, and HTTPAPISelf what the handler
// spends outside it. HandlerSpan is the p50 of the handler span the
// middleware records around the load's own requests.
type attribution struct {
	Class       string  `json:"class"`
	Samples     int     `json:"samples"`
	P50         float64 `json:"p50_ms"`
	Lag         float64 `json:"lag_ms"`
	Loopback    float64 `json:"loopback_ms"`
	ServerPart  string  `json:"server_part"`
	Server      float64 `json:"server_ms"`
	Closure     float64 `json:"closure"`
	HandlerSpan float64 `json:"handler_span_ms"`
	Facade      float64 `json:"facade_ms,omitempty"`
	HTTPAPISelf float64 `json:"httpapi_self_ms,omitempty"`
}

// layerMetrics computes the per-layer metrics of a traced run: the request
// spans of the timed phase, the server's own counters, and a replay of the
// run's seeded write batches through each layer's public functions.
func layerMetrics(s spec, c *corpus, cfg config, runDir string, ph *phase, cr *crashResult, tr *tracer, m *metricSet, rep *report) error {
	spans := tr.snapshot()
	self := selfTimes(spans)
	handler := map[uint64]time.Duration{}
	direct := map[string][]time.Duration{}
	for _, sp := range spans {
		switch {
		case sp.Req != 0 && sp.ID == handlerSpanID(sp.Req):
			handler[sp.Req] = sp.dur()
		case sp.Req == 0:
			direct[sp.Name] = append(direct[sp.Name], sp.dur())
		}
	}

	// load: the generator's lateness, over every measured request.
	var lag []time.Duration
	for _, smp := range ph.samples {
		if smp.measured {
			lag = append(lag, time.Duration(smp.send-smp.due))
		}
	}
	m.set("load.send_lag_p50_ms", ms(quantile(lag, 0.5)), "ms", len(lag))
	m.set("load.send_lag_p99_ms", ms(quantile(lag, 0.99)), "ms", len(lag))
	m.set("load.idle_send_lag_p50_ms", rep.Diagnostics["load.idle_send_lag_p50_ms"], "ms", 1)

	// httpapi and the attribution of each request class.
	loopback := median(ph.loopback)
	m.set("load.loopback_rtt_p50_us", us(loopback), "us", len(ph.loopback))
	lt := ph.st1.Latency
	stages := ms(lt.Queue.P50 + lt.Apply.P50 + lt.Publish.P50)
	facade := [numClasses]string{clsRecommend: "annotadb.recommend", clsCorrelate: "annotadb.correlate"}
	for cl := class(0); cl < numClasses; cl++ {
		var hs, res, lags, totals []time.Duration
		for _, smp := range ph.samples {
			h, ok := handler[smp.id]
			if smp.cls != cl || !smp.measured || smp.failed || !ok {
				continue
			}
			hs, res, totals = append(hs, h), append(res, self[clientSpanID(smp.id)]), append(totals, smp.latency(s.Closed))
			if !s.Closed {
				lags = append(lags, time.Duration(smp.send-smp.due))
			}
		}
		route := "httpapi." + classRoutes[cl]
		m.set(route+".handler_p50_us", us(median(hs)), "us", len(hs))
		m.set(route+".residual_p50_us", us(median(res)), "us", len(res))

		a := attribution{
			Class: classNames[cl], Samples: len(totals), P50: ms(median(totals)),
			Lag: ms(median(lags)), Loopback: ms(loopback), HandlerSpan: ms(median(hs)),
			ServerPart: "serve.queue+apply+publish", Server: stages,
		}
		n := int(lt.Apply.Count)
		if f := facade[cl]; f != "" {
			dh := direct["httpapi.direct."+classRoutes[cl]]
			a.ServerPart, a.Server, n = "httpapi.direct", ms(median(dh)), len(dh)
			a.Facade = ms(median(direct[f]))
			a.HTTPAPISelf = a.Server - a.Facade
		}
		if a.P50 > 0 {
			a.Closure = (a.Lag + a.Loopback + a.Server) / a.P50
		}
		rep.Attribution = append(rep.Attribution, a)
		m.set("attrib."+classNames[cl]+".closure", a.Closure, "ratio", min(len(totals), n, len(ph.loopback)))
	}

	// annotadb facade: direct calls made while the load ran.
	m.set("annotadb.recommend_p50_us", us(median(direct["annotadb.recommend"])), "us", len(direct["annotadb.recommend"]))
	m.set("annotadb.correlate_p50_us", us(median(direct["annotadb.correlate"])), "us", len(direct["annotadb.correlate"]))

	// serve: the writer's own stage digests and counters over the phase.
	m.set("serve.queue_mean_ms", ms(lt.Queue.Mean), "ms", int(lt.Queue.Count))
	m.set("serve.apply_mean_ms", ms(lt.Apply.Mean), "ms", int(lt.Apply.Count))
	m.set("serve.publish_mean_ms", ms(lt.Publish.Mean), "ms", int(lt.Publish.Count))
	batches := ph.st1.Batches - ph.st0.Batches
	updates := ackedUpdates(ph.samples, false)
	m.set("serve.updates_per_apply", float64(updates)/float64(max(1, batches)), "updates", int(batches))
	shed := ph.st1.Shed - ph.st0.Shed
	m.set("serve.shed_ratio", float64(shed)/float64(max(1, ph.st1.Requests-ph.st0.Requests+shed)), "ratio", 1)

	// shard: the busiest shard's share of engine applications (sharded
	// workloads only).
	if len(ph.st1.PerShard) > 0 {
		var total, top uint64
		for i, ps := range ph.st1.PerShard {
			n := ps.Batches - ph.st0.PerShard[i].Batches
			total += n
			top = max(top, n)
		}
		rep.Diagnostics["shard.apply_share_max"] = float64(top) / float64(max(1, total))
	}

	// correlate: index reuse across the phase.
	builds := ph.cs1.IndexBuilds - ph.cs0.IndexBuilds
	hits := ph.cs1.CacheHits - ph.cs0.CacheHits
	m.set("correlate.cache_hit_ratio", float64(hits)/float64(max(1, builds+hits)), "ratio", int(builds+hits))

	// wal: the log's work per acknowledged update, and recovery's replay
	// rate.
	m.set("wal.fsyncs_per_update", float64(ph.du1.Syncs-ph.du0.Syncs)/float64(max(1, updates)), "fsyncs/update", updates)
	m.set("wal.log_bytes_per_update", cr.logBytesPerUpdate, "bytes/update", 1)
	m.set("wal.checkpoints", float64(ph.du1.Checkpoints-ph.du0.Checkpoints), "count", 1)
	m.set("wal.replay_ms_per_record", ms(median(cr.reopens)-cr.clean)/float64(max(1, cr.records)), "ms/record", cr.records)

	// stream: event delivery to an in-process subscriber.
	m.set("stream.delivery_p50_ms", ms(median(ph.delivery)), "ms", len(ph.delivery))

	return replayLayers(s, c, cfg.seed, filepath.Join(runDir, "replay"), tr, m)
}

// replayOp is a seeded write resolved against the replay relation.
type replayOp struct {
	op      op
	updates []relation.AnnotationUpdate
	tuples  []relation.Tuple
}

// replayLayers replays the run's seeded write batches through each layer's
// public functions on a fresh engine over the seed relation, timing every
// call as a span.
func replayLayers(s spec, c *corpus, seed int64, dir string, tr *tracer, m *metricSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rel, err := workload.BuildRelation(c.base)
	if err != nil {
		return err
	}
	dict := rel.Dictionary()
	cow := rel.Clone() // shares the dictionary; the relation layer's own copy
	cfg := mining.Config{MinSupport: s.MinSupport, MinConfidence: s.MinConfidence, Algorithm: mining.AlgorithmApriori}
	var eng *incremental.Engine
	bootstrap := tr.call("mining.bootstrap", func() { eng, err = incremental.New(rel, cfg, incremental.Options{}) })
	if err != nil {
		return err
	}
	m.set("mining.bootstrap_s", bootstrap.Seconds(), "s", 1)

	writes, reads, err := replayPlan(s, c, seed, dict)
	if err != nil {
		return err
	}
	var (
		viewNs, firstWrite, cowBytes []time.Duration
		attach, detach, appendT      []time.Duration
		compile, eval, diff          []time.Duration
		build, topk                  []time.Duration
		eligible, events             []float64
		ms0, ms1                     runtime.MemStats
	)
	snap := eng.Snapshot()
	prev := stream.TierViews{Valid: snap.Rules, Candidates: snap.Candidates}
	buildEvery := max(1, len(writes)/20)
	for i, w := range writes {
		// relation: capture a view, then time the first mutation after it
		// (the copy-on-write) and the bytes it allocates.
		var v *relation.View
		viewNs = append(viewNs, tr.call("relation.view", func() { v = cow.View() }))
		runtime.ReadMemStats(&ms0)
		firstWrite = append(firstWrite, tr.call("relation.first_write", func() { err = cowApply(cow, w) }))
		runtime.ReadMemStats(&ms1)
		runtime.KeepAlive(v)
		if err != nil {
			return fmt.Errorf("relation replay: %w", err)
		}
		cowBytes = append(cowBytes, time.Duration(ms1.TotalAlloc-ms0.TotalAlloc))

		// incremental: the engine's maintenance pass for the batch.
		switch {
		case w.op.cls == clsTuples:
			appendT = append(appendT, tr.call("incremental.append", func() { _, err = engineAppend(eng, w.tuples) }))
		case w.op.remove:
			detach = append(detach, tr.call("incremental.detach", func() { _, err = eng.RemoveAnnotations(w.updates) }))
		default:
			attach = append(attach, tr.call("incremental.attach", func() { _, err = eng.AddAnnotations(w.updates) }))
		}
		if err != nil {
			return fmt.Errorf("incremental replay: %w", err)
		}

		// predict, stream, correlate on the new generation.
		snap := eng.Snapshot()
		var comp *predict.Compiled
		compile = append(compile, tr.call("predict.compile", func() { comp = predict.Compile(snap.Rules, predict.Options{}) }))
		eligible = append(eligible, float64(comp.Len()))
		for k := 0; k < evalsPerGen && len(reads.tuples) > 0; k++ {
			idx := reads.tuples[(i*evalsPerGen+k)%len(reads.tuples)]
			tu, terr := snap.Relation.Tuple(idx)
			if terr != nil {
				return terr
			}
			eval = append(eval, tr.call("predict.eval", func() { comp.ForTupleAt(tu, idx) }))
		}
		next := stream.TierViews{Valid: snap.Rules, Candidates: snap.Candidates}
		var evs []stream.Event
		diff = append(diff, tr.call("stream.diff", func() { evs = stream.Diff(prev, next, dict) }))
		events = append(events, float64(len(evs)))
		prev = next
		if i%buildEvery == 0 {
			var idx *correlate.Index
			build = append(build, tr.call("correlate.index_build", func() { idx = correlate.NewIndex(snap.Relation) }))
			for k := 0; k < topKPerIndex; k++ {
				q, _ := correlate.ParseQuery(reads.anchors[(i+k)%len(reads.anchors)], "10", "")
				topk = append(topk, tr.call("correlate.topk", func() { _, _ = idx.TopK(q) }))
			}
		}
	}
	st := eng.Stats()
	applications := st.Case1 + st.Case2 + st.Case3 + st.Removals
	m.set("incremental.attach_p50_us", us(median(attach)), "us", len(attach))
	m.set("incremental.detach_p50_us", us(median(detach)), "us", len(detach))
	m.set("incremental.append_p50_us", us(median(appendT)), "us", len(appendT))
	m.set("incremental.remine_ratio", float64(st.Remines)/float64(max(1, applications)), "ratio", applications)
	m.set("predict.compile_p50_us", us(median(compile)), "us", len(compile))
	m.set("predict.eval_p50_ns", float64(median(eval)), "ns", len(eval))
	m.set("predict.eligible_rules", medianFloat(eligible), "rules", len(eligible))
	m.set("relation.view_capture_p50_ns", float64(median(viewNs)), "ns", len(viewNs))
	m.set("relation.first_write_p50_us", us(median(firstWrite)), "us", len(firstWrite))
	m.set("relation.cow_bytes_p50", float64(median(cowBytes)), "bytes", len(cowBytes))
	m.set("stream.diff_p50_us", us(median(diff)), "us", len(diff))
	m.set("stream.events_per_publish", mean(events), "events", len(events))
	m.set("correlate.index_build_p50_ms", ms(median(build)), "ms", len(build))
	m.set("correlate.topk_p50_us", us(median(topk)), "us", len(topk))

	// shard: partitioning the final generation into family shards, the
	// projection a sharded server bootstraps each shard from.
	final := eng.Snapshot().Relation
	var project []time.Duration
	for i := 0; i < projectRuns; i++ {
		project = append(project, tr.call("shard.project", func() { _, err = shard.ProjectAll(final, projectShards) }))
		if err != nil {
			return fmt.Errorf("shard projection: %w", err)
		}
	}
	m.set("shard.project_p50_ms", ms(median(project)), "ms", len(project))

	if err := replayStorage(eng, writes, dir, tr, m); err != nil {
		return err
	}
	return replayReplica(s, c, writes, dir, tr, m)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

// replayReads are the read inputs of the replay: recommend positions and
// correlate anchors from the run's own schedules.
type replayReads struct {
	tuples  []int
	anchors []string
}

// replayPlan regenerates the run's seeded operations (same seed, same
// planners) and resolves the first replayWrites writes against dict.
func replayPlan(s spec, c *corpus, seed int64, dict *relation.Dictionary) ([]replayOp, replayReads, error) {
	planners, err := newPlanners(s, c, seed)
	if err != nil {
		return nil, replayReads{}, err
	}
	var (
		writes []replayOp
		reads  replayReads
	)
	for n := 0; len(writes) < replayWrites; n++ {
		p := planners[n%len(planners)]
		o := p.next()
		switch o.cls {
		case clsRecommend:
			reads.tuples = append(reads.tuples, o.tuple)
		case clsCorrelate:
			reads.anchors = append(reads.anchors, o.anchor)
		case clsAnnotate:
			w := replayOp{op: o}
			for _, u := range o.updates {
				it, ok := dict.Lookup(u.Annotation)
				if !ok {
					return nil, reads, fmt.Errorf("replay: unknown annotation %q", u.Annotation)
				}
				w.updates = append(w.updates, relation.AnnotationUpdate{Index: u.Tuple, Annotation: it})
			}
			writes = append(writes, w)
		case clsTuples:
			w := replayOp{op: o}
			for _, t := range o.tuples {
				tu, err := internTuple(dict, t)
				if err != nil {
					return nil, reads, err
				}
				w.tuples = append(w.tuples, tu)
			}
			writes = append(writes, w)
		}
	}
	if len(reads.tuples) == 0 {
		for i := 0; i < 100; i++ {
			reads.tuples = append(reads.tuples, (i*7919)%len(c.base))
		}
	}
	if len(reads.anchors) == 0 {
		reads.anchors = c.anchors
	}
	return writes, reads, nil
}

func internTuple(dict *relation.Dictionary, t workload.TokenTuple) (relation.Tuple, error) {
	items := make([]itemset.Item, 0, len(t.Values)+len(t.Annotations))
	for _, tok := range t.Values {
		it, err := dict.InternData(tok)
		if err != nil {
			return relation.Tuple{}, err
		}
		items = append(items, it)
	}
	for _, tok := range t.Annotations {
		it, err := dict.InternAnnotation(tok)
		if err != nil {
			return relation.Tuple{}, err
		}
		items = append(items, it)
	}
	return relation.NewTuple(items...), nil
}

// cowApply applies one replayed write straight to a relation.
func cowApply(rel *relation.Relation, w replayOp) error {
	switch {
	case w.op.cls == clsTuples:
		rel.Append(w.tuples...)
		return nil
	case w.op.remove:
		_, _, err := rel.ApplyRemovals(w.updates)
		return err
	default:
		_, _, err := rel.ApplyUpdates(w.updates)
		return err
	}
}

// engineAppend routes a tuple batch the way the serving writer does: Case 1
// when any tuple carries annotations, Case 2 otherwise.
func engineAppend(eng *incremental.Engine, tuples []relation.Tuple) (*incremental.Report, error) {
	for _, t := range tuples {
		if t.Annotated() {
			return eng.AddAnnotatedTuples(tuples)
		}
	}
	return eng.AddUnannotatedTuples(tuples)
}

// replayStorage times checkpoints of the replayed final state and the WAL's
// append-plus-fsync of the replayed batches.
func replayStorage(eng *incremental.Engine, writes []replayOp, dir string, tr *tracer, m *metricSet) error {
	st := eng.State()
	ck := &storage.Checkpoint{
		Epoch: 1, ConfigFingerprint: "perfbench", Relation: st.Relation,
		Valid: st.Valid, Candidates: st.Candidates, DataPatterns: st.DataPatterns, AnnotPatterns: st.AnnotPatterns,
	}
	path := filepath.Join(dir, "checkpoint.db")
	var ckpt []time.Duration
	var err error
	for i := 0; i < checkpointRuns; i++ {
		ckpt = append(ckpt, tr.call("storage.checkpoint", func() { err = storage.WriteCheckpointFile(path, ck) }))
		if err != nil {
			return err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("wal.checkpoint_p50_ms", ms(median(ckpt)), "ms", len(ckpt))
	m.set("wal.checkpoint_bytes", float64(fi.Size()), "bytes", 1)

	log, err := wal.OpenLog(filepath.Join(dir, "scratch.log"), 1)
	if err != nil {
		return err
	}
	defer log.Close()
	var appends []time.Duration
	for _, w := range writes {
		if w.op.cls != clsAnnotate {
			continue
		}
		rec := wal.Record{Kind: wal.KindAddAnnotations}
		if w.op.remove {
			rec.Kind = wal.KindRemoveAnnotations
		}
		for _, u := range w.op.updates {
			rec.Updates = append(rec.Updates, wal.Update{Tuple: u.Tuple, Annotation: u.Annotation})
		}
		appends = append(appends, tr.call("wal.append_sync", func() {
			if _, err = log.Append(rec, wal.EncodingBinary); err == nil {
				err = log.Sync()
			}
		}))
		if err != nil {
			return err
		}
	}
	m.set("wal.append_sync_p50_us", us(median(appends)), "us", len(appends))
	return nil
}

// replayReplica replays the first writes through a durable unsharded
// primary over the workload's seed relation with one follower tailing it:
// the follower's lag before each write, and how long its read-your-writes
// barrier (Server.WaitSeq) waits for each acknowledged seq.
func replayReplica(s spec, c *corpus, writes []replayOp, dir string, tr *tracer, m *metricSet) error {
	ps := s
	ps.Shards = 0
	primary, _, _, err := openPrimary(ps, c, filepath.Join(dir, "replica-primary"), 0, nil)
	if err != nil {
		return err
	}
	defer primary.close()
	f, err := annotadb.Follow(s.options(), annotadb.ServeOptions{}, annotadb.FollowOptions{Primary: primary.url})
	if err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	defer f.Close(context.Background())
	ctx := context.Background()
	// The follower's lag estimate is sampled on a clock of its own, so the
	// samples fall at every phase of its tail polling.
	var lag []time.Duration
	sampling, stopSampling := context.WithCancel(ctx)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampling.Done():
				return
			case <-tick.C:
				lag = append(lag, time.Duration(f.Replication().LagMillis)*time.Millisecond)
			}
		}
	}()
	defer func() { stopSampling(); <-sampled }()
	var wait []time.Duration
	for _, w := range writes[:min(replicaWrites, len(writes))] {
		var rep annotadb.UpdateReport
		switch w.op.cls {
		case clsTuples:
			batch := make([]annotadb.TupleSpec, len(w.op.tuples))
			for i, t := range w.op.tuples {
				batch[i] = annotadb.TupleSpec{Values: t.Values, Annotations: t.Annotations}
			}
			rep, err = primary.srv.AddTuples(ctx, batch)
		default:
			batch := make([]annotadb.AnnotationUpdate, len(w.op.updates))
			for i, u := range w.op.updates {
				batch[i] = annotadb.AnnotationUpdate{Tuple: u.Tuple, Annotation: u.Annotation}
			}
			if w.op.remove {
				rep, err = primary.srv.RemoveAnnotations(ctx, batch)
			} else {
				rep, err = primary.srv.AddAnnotations(ctx, batch)
			}
		}
		if err != nil {
			return fmt.Errorf("replica replay: %w", err)
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		wait = append(wait, tr.call("replica.wait_seq", func() { err = f.WaitSeq(wctx, rep.Seq) }))
		cancel()
		if err != nil {
			return fmt.Errorf("replica barrier: %w", err)
		}
	}
	stopSampling()
	<-sampled
	rs := f.Replication()
	m.set("replica.lag_p50_ms", ms(median(lag)), "ms", len(lag))
	m.set("replica.barrier_wait_p50_ms", ms(median(wait)), "ms", len(wait))
	m.set("replica.rebootstraps", float64(rs.Bootstraps-1+rs.Conflicts), "count", 1)
	return nil
}
