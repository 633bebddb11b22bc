package annotadb

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"annotadb/internal/correlate"
	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/metrics"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/replica"
	"annotadb/internal/rules"
	"annotadb/internal/serve"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/stream"
	"annotadb/internal/wal"
)

// ErrServerClosed is returned by Server write methods after Close. Callers
// mapping it to a transport status should treat it as unavailability (the
// process is shutting down), not as a request defect.
var ErrServerClosed = serve.ErrClosed

// ErrJournal wraps write failures caused by the durable store's write-ahead
// log (e.g. a full disk). The batch was valid but was not applied; callers
// mapping it to a transport status should report a server-side failure, not
// a request defect, and the client may retry.
var ErrJournal = serve.ErrJournal

// ErrOverloaded is returned by Server write methods when the bounded
// admission queue stayed full for a whole batch window: the writer is not
// keeping up and the request was shed instead of queued. Callers mapping it
// to a transport status should return 429 Too Many Requests with a
// Retry-After hint; the write was NOT applied and may be retried.
var ErrOverloaded = serve.ErrOverloaded

// ServeOptions configure a Server's write coalescing, recommendation
// filtering, and sharding.
type ServeOptions struct {
	// BatchWindow is how long the writer lingers after the first pending
	// update to coalesce concurrent updates into one maintenance pass.
	// Zero means the serving default (1ms); negative disables lingering
	// (already-queued updates still coalesce).
	BatchWindow time.Duration
	// MaxBatch caps updates per coalesced maintenance pass (0 = default).
	MaxBatch int
	// QueueDepth bounds pending write requests (0 = default). The queue is
	// an admission control: a submission that finds it full waits at most
	// one batch window for a slot and is then shed with ErrOverloaded
	// instead of blocking indefinitely.
	QueueDepth int
	// Recommend filters the rules used to answer recommendation reads.
	Recommend RecommendOptions
	// Shards partitions the serving state by annotation family into this
	// many independent write paths (relation replica + engine + writer loop
	// per shard), so annotation batches for different families commit in
	// parallel. 0 or 1 serves unsharded. The family of an annotation token
	// is its prefix before the first ":" (or the whole token); see the
	// sharding section of ARCHITECTURE.md for the placement contract —
	// annotation-to-annotation correlations are discovered within a family.
	Shards int
	// Stream tunes the rule-churn event stream (Server.Subscribe and
	// GET /events): ring size, and — on a durable server — the event log's
	// segment rotation and retention. The zero value enables the stream
	// with defaults; set Stream.Disabled to turn it off.
	Stream StreamOptions
	// Correlate configures the correlation-discovery subsystem. Anchor
	// queries (Server.Correlate, GET /correlate) are always served — they
	// are pure snapshot reads whose per-generation index costs nothing
	// until the first query — so these options only govern the
	// churn-anomaly detector.
	Correlate CorrelateOptions
}

// Server serves rules and recommendations concurrently while annotations
// and tuples stream in. Reads (Rules, Recommend*, Stats) work against
// atomically published immutable snapshots and never block behind writes;
// writes are coalesced by single writer loops (one per shard) and
// acknowledged after the batch they rode in is applied and fresh snapshots
// are published.
//
// NewServer takes ownership of the engine and its dataset: route every
// mutation through the Server and treat direct Engine/Dataset calls as
// read-only (their results may trail the serving snapshot by one batch).
// A sharded Server (ServeOptions.Shards > 1, or an engine opened with
// DurabilityOptions.Shards > 1) serves the merged view of its per-shard
// state; Dataset returns nil for it.
type Server struct {
	ds   *Dataset
	core *serve.Server // unsharded serving core; nil when sharded
	// router fans writes out by annotation family and merges reads; nil
	// when unsharded.
	router *shard.Router
	// store is the durable backing store (nil for in-memory servers): the
	// serving writer journals every batch to it, and Close checkpoints and
	// closes it. storeClosed makes that final step run exactly once.
	store *wal.Store
	// cluster is the sharded durable backing store (nil otherwise).
	cluster     *shard.Cluster
	storeClosed atomic.Bool

	// follower is non-nil on a read replica (see Follow): reads serve from
	// its current world, writes fail with ErrFollower. replicaSrc is the
	// primary-side replication feed (non-nil only on unsharded durable
	// servers). retry is the shed-write backoff hint (see RetryAfter).
	follower   *replica.Follower
	replicaSrc *replica.Source
	retry      time.Duration

	// stream is the rule-churn broker (nil when disabled); eventLog is its
	// durable segment log (nil for in-memory servers). Close closes both
	// after the writers have drained.
	stream   *stream.Broker
	eventLog *wal.SegmentedLog

	// detector is the churn-anomaly detector (nil unless
	// CorrelateOptions.Anomalies); closeStream stops it before sealing the
	// broker it both consumes and publishes to. correlateBuilds and
	// correlateHits count per-generation correlate index builds vs reuses;
	// correlateFullScans counts the builds that scanned the whole relation.
	detector           *correlate.Detector
	correlateBuilds    atomic.Uint64
	correlateHits      atomic.Uint64
	correlateFullScans atomic.Uint64

	// rendered memoizes the token-rendered rules of one snapshot, so that
	// serving GET /rules-style reads does not re-resolve dictionary tokens
	// (each behind the dictionary's lock) for every request.
	rendered atomic.Pointer[renderedRules]
}

// renderedRules caches the public rules of one snapshot generation: the
// scalar sequence for an unsharded server, the full per-shard sequence
// vector for a sharded one. The vector itself is the cache key — two
// concurrent readers can assemble different vectors with equal sums (the
// per-shard loads are not one atomic cut), so the sum alone would collide.
type renderedRules struct {
	seq   uint64
	seqs  []uint64 // nil for unsharded
	rules []Rule
}

func (c *renderedRules) matches(seqs []uint64) bool {
	if len(c.seqs) != len(seqs) {
		return false
	}
	for i := range seqs {
		if c.seqs[i] != seqs[i] {
			return false
		}
	}
	return true
}

// NewServer wraps an engine in a serving core and starts its writer loops.
// An engine from OpenDurable brings its durable store along: the writer
// journals every batch to the write-ahead log before applying it. With
// ServeOptions.Shards > 1 on an in-memory engine, the engine's dataset is
// partitioned by annotation family and each shard is mined and served
// independently (the engine itself is then no longer connected to the
// served state — route everything through the Server).
func NewServer(e *Engine, opts ServeOptions) (*Server, error) {
	if e.cluster != nil {
		if opts.Shards > 0 && opts.Shards != len(e.cluster.Stores()) {
			return nil, fmt.Errorf("annotadb: ServeOptions.Shards = %d but the durable cluster holds %d shards", opts.Shards, len(e.cluster.Stores()))
		}
		broker, eventLog, err := newStream(opts.Stream, e.cluster.Dir(), len(e.cluster.Stores()))
		if err != nil {
			return nil, err
		}
		router, err := shard.FromEngines(e.cluster.Engines(), shardStreamConfig(shard.Config{
			Shards:   len(e.cluster.Stores()),
			Serve:    opts.internal(),
			Journals: e.cluster.Journals(),
		}, broker))
		if err != nil {
			if broker != nil {
				broker.Close()
			}
			return nil, err
		}
		s := &Server{
			router:   router,
			cluster:  e.cluster,
			stream:   broker,
			eventLog: eventLog,
			retry:    retryHint(opts.BatchWindow, storeFlushWindow(nil, e.cluster.Stores())),
		}
		if err := s.startDetector(opts.Correlate, nil); err != nil {
			s.Close(context.Background()) //nolint:errcheck
			return nil, err
		}
		return s, nil
	}
	if opts.Shards > 1 {
		if e.store != nil {
			// Serving a durable unsharded engine through in-memory shards
			// would acknowledge writes that never reach its WAL — silent
			// data loss at the next open.
			return nil, fmt.Errorf("annotadb: ServeOptions.Shards = %d but the engine's durable store is unsharded; reopen with DurabilityOptions.Shards instead", opts.Shards)
		}
		return newShardedInMemory(e.ds, e.eng.Config(), opts)
	}
	cfg := opts.internal()
	dir := ""
	if e.store != nil {
		cfg.Journal = e.store
		dir = e.store.Dir()
	}
	broker, eventLog, err := newStream(opts.Stream, dir, 1)
	if err != nil {
		return nil, err
	}
	if broker != nil {
		cfg.Stream = stream.NewPublisher(broker, 0, e.ds.rel.Dictionary())
	}
	s := &Server{
		ds:       e.ds,
		core:     serve.New(e.eng, cfg),
		store:    e.store,
		stream:   broker,
		eventLog: eventLog,
		retry:    retryHint(opts.BatchWindow, storeFlushWindow(e.store, nil)),
	}
	if s.store != nil {
		// An unsharded durable server owns the one checkpoint + log a
		// follower needs, so it is born replicable; the source's run id
		// identifies this process run to followers across restarts.
		src, err := replica.NewSource(s.store, s.core.Seq)
		if err != nil {
			s.core.Close(context.Background()) //nolint:errcheck
			if broker != nil {
				broker.Close() //nolint:errcheck
			}
			return nil, err
		}
		s.replicaSrc = src
	}
	if err := s.startDetector(opts.Correlate, s.core.Seq); err != nil {
		s.Close(context.Background()) //nolint:errcheck
		return nil, err
	}
	return s, nil
}

// NewShardedServer partitions the dataset by annotation family into
// opts.Shards independent shards, mines each projection in parallel, and
// serves the merged view. It is the in-memory sharded entry point that
// skips the full unsharded bootstrap mine NewEngine would pay; the durable
// equivalent is OpenDurable with DurabilityOptions.Shards.
func NewShardedServer(d *Dataset, opts Options, sopts ServeOptions) (*Server, error) {
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	return newShardedInMemory(d, cfg, sopts)
}

func newShardedInMemory(d *Dataset, cfg mining.Config, sopts ServeOptions) (*Server, error) {
	eopts := incremental.Options{DisableCandidateStore: cfg.CandidateSlack >= 1}
	shards := sopts.Shards
	if shards < 1 {
		shards = 1
	}
	broker, _, err := newStream(sopts.Stream, "", shards)
	if err != nil {
		return nil, err
	}
	router, err := shard.NewRouter(d.rel, func(rel *relation.Relation) (*incremental.Engine, error) {
		return incremental.New(rel, cfg, eopts)
	}, shardStreamConfig(shard.Config{
		Shards: sopts.Shards,
		Serve:  sopts.internal(),
	}, broker))
	if err != nil {
		if broker != nil {
			broker.Close()
		}
		return nil, err
	}
	s := &Server{router: router, stream: broker, retry: retryHint(sopts.BatchWindow, 0)}
	if err := s.startDetector(sopts.Correlate, nil); err != nil {
		s.Close(context.Background()) //nolint:errcheck
		return nil, err
	}
	return s, nil
}

// startDetector starts the churn-anomaly detector when the options ask for
// one and the server has an event stream to watch. seqFn stamps emitted
// events with a serving generation; nil stamps 0 — mandatory on sharded
// brokers, whose seq vector only shard publishers may advance.
func (s *Server) startDetector(opts CorrelateOptions, seqFn func() uint64) error {
	if !opts.Anomalies || s.stream == nil {
		return nil
	}
	d, err := correlate.StartDetector(s.stream, correlate.DetectorOptions{
		Window:    opts.AnomalyWindow,
		Threshold: opts.AnomalyThreshold,
	}, seqFn)
	if err != nil {
		return err
	}
	s.detector = d
	return nil
}

func (o ServeOptions) internal() serve.Config {
	return serve.Config{
		BatchWindow: o.BatchWindow,
		MaxBatch:    o.MaxBatch,
		QueueDepth:  o.QueueDepth,
		Recommend:   o.Recommend.internal(),
	}
}

// Sharded reports whether the server fans writes out over family shards.
func (s *Server) Sharded() bool { return s.router != nil }

// Shards returns the shard count: 1 for an unsharded server.
func (s *Server) Shards() int {
	if s.router == nil {
		return 1
	}
	return s.router.Shards()
}

// Close drains queued updates and stops the writer loops, waiting up to ctx.
// A durable server then writes final checkpoints (so the next open replays
// nothing; skipped when the logs are already empty) and closes its store.
// Reads remain valid (and final) after Close; writes fail with an error.
// Close is idempotent: later calls return nil once the first completed.
func (s *Server) Close(ctx context.Context) error {
	if s.follower != nil {
		// Stop the tail loop first (it is the world core's only writer), then
		// close the core; the stream broker seals last so subscribers drain.
		err := s.follower.Close(ctx)
		if streamErr := s.closeStream(); streamErr != nil && err == nil {
			err = streamErr
		}
		return err
	}
	if s.router != nil {
		err := s.router.Close(ctx)
		if s.cluster == nil || err != nil {
			if err == nil {
				err = s.closeStream()
			}
			return err
		}
		if !s.storeClosed.CompareAndSwap(false, true) {
			return nil
		}
		if ckErr := s.cluster.Checkpoint(); ckErr != nil {
			err = ckErr
		}
		if closeErr := s.cluster.Close(); closeErr != nil && err == nil {
			err = closeErr
		}
		// The writers have drained: the event stream is complete, so the
		// broker can seal its segment log (subscribers finish draining and
		// their channels close).
		if streamErr := s.closeStream(); streamErr != nil && err == nil {
			err = streamErr
		}
		return err
	}
	err := s.core.Close(ctx)
	if s.store == nil || err != nil {
		// On a drain timeout the writer may still be running; leave the
		// store to it — every applied batch is already in the synced log,
		// so recovery replays it. Only a clean drain may checkpoint.
		if err == nil {
			err = s.closeStream()
		}
		return err
	}
	if !s.storeClosed.CompareAndSwap(false, true) {
		return nil
	}
	if s.store.HasPendingRecords() {
		if ckErr := s.store.Checkpoint(); ckErr != nil {
			err = ckErr
		}
	}
	if closeErr := s.store.Close(); closeErr != nil && err == nil {
		err = closeErr
	}
	if streamErr := s.closeStream(); streamErr != nil && err == nil {
		err = streamErr
	}
	return err
}

// closeStream closes the churn broker (and its segment log), stopping the
// anomaly detector first — it both consumes from and publishes to the
// broker, so it must be gone before the broker seals. Idempotent; called
// only after the writer loops have drained.
func (s *Server) closeStream() error {
	if s.detector != nil {
		s.detector.Stop()
	}
	if s.stream == nil {
		return nil
	}
	return s.stream.Close()
}

// Dataset returns the served dataset (treat as read-only), or nil for a
// sharded server (its state lives in per-shard replicas with no merged
// live relation) and for a follower (its relation is rebuilt on every
// re-bootstrap; read through the serving methods instead).
func (s *Server) Dataset() *Dataset { return s.ds }

// world returns the serving core and relation unsharded reads go against:
// the follower's current world, or the primary core and its live relation.
// The pair comes from one atomic load, so core and relation always belong
// to the same bootstrap generation.
func (s *Server) world() (*serve.Server, *relation.Relation) {
	if s.follower != nil {
		w := s.follower.World()
		return w.Core, w.Rel
	}
	return s.core, s.ds.rel
}

// publicShardRule converts a token-form shard rule to the public type.
func publicShardRule(r shard.Rule) Rule {
	kind := DataToAnnotation
	if r.Kind == rules.AnnotationToAnnotation {
		kind = AnnotationToAnnotation
	}
	return Rule{
		LHS:          r.LHS,
		RHS:          r.RHS,
		Kind:         kind,
		Support:      r.Support(),
		Confidence:   r.Confidence(),
		PatternCount: r.PatternCount,
		LHSCount:     r.LHSCount,
		N:            r.N,
	}
}

// Rules returns the current snapshot's valid rules, deterministically
// ordered, without taking any maintenance engine's lock. For a sharded
// server the result is the merged (disjoint) union of the per-shard rule
// views at one sequence vector. The slice is rendered once per snapshot and
// shared between callers; treat it as read-only.
func (s *Server) Rules() []Rule {
	if s.router != nil {
		// Load the vector first and only render on a cache miss: rendering
		// walks and re-sorts every shard's rules, which is the whole cost
		// the memo exists to avoid.
		snaps := s.router.Snapshots()
		seqs := shard.Seqs(snaps)
		if c := s.rendered.Load(); c != nil && c.matches(seqs) {
			return c.rules
		}
		shardRules := shard.MergedRules(snaps)
		out := make([]Rule, len(shardRules))
		for i, r := range shardRules {
			out[i] = publicShardRule(r)
		}
		// Vectors are only partially ordered across concurrent readers, so
		// there is no "newer" to protect: last render wins, and any cached
		// entry is internally consistent with its own vector.
		s.rendered.Store(&renderedRules{seqs: seqs, rules: out})
		return out
	}
	if s.follower != nil {
		// A follower's local sequence restarts at every re-bootstrap, so the
		// scalar key (strictly increasing on a primary) would collide across
		// worlds; key on (world generation, local seq) via the vector slot
		// instead, last render wins like the sharded path.
		w := s.follower.World()
		snap := w.Core.Snapshot()
		key := []uint64{w.Gen, snap.Seq}
		if c := s.rendered.Load(); c != nil && c.matches(key) {
			return c.rules
		}
		dict := w.Rel.Dictionary()
		sorted := snap.Rules.Sorted()
		out := make([]Rule, len(sorted))
		for i, r := range sorted {
			out[i] = publicRule(r, dict)
		}
		s.rendered.Store(&renderedRules{seqs: key, rules: out})
		return out
	}
	snap := s.core.Snapshot()
	if c := s.rendered.Load(); c != nil && c.seq == snap.Seq {
		return c.rules
	}
	dict := s.ds.rel.Dictionary()
	sorted := snap.Rules.Sorted()
	out := make([]Rule, len(sorted))
	for i, r := range sorted {
		out[i] = publicRule(r, dict)
	}
	s.cacheRendered(snap.Seq, out)
	return out
}

// cacheRendered publishes a rendered rule slice under its scalar snapshot
// key (unsharded path). Racing renders of the same snapshot produce
// identical slices; the CAS loop guarantees a newer snapshot's cache is
// never replaced by an older render (keys are strictly increasing across
// publishes).
func (s *Server) cacheRendered(key uint64, rules []Rule) {
	fresh := &renderedRules{seq: key, rules: rules}
	for {
		c := s.rendered.Load()
		if c != nil && c.seq >= key {
			return
		}
		if s.rendered.CompareAndSwap(c, fresh) {
			return
		}
	}
}

// seqSum folds a per-shard sequence vector into an informational scalar.
// Each component is non-decreasing, so the sum is too — but concurrent
// readers can assemble different vectors with equal sums (the per-shard
// loads are not one atomic cut), so the sum is a staleness indicator, not
// a unique generation id; ReadSeq.Shards is authoritative.
func seqSum(seqs []uint64) uint64 {
	var sum uint64
	for _, s := range seqs {
		sum += s
	}
	return sum
}

// ReadSeq identifies the snapshot generation a read was answered from.
type ReadSeq struct {
	// Seq is the scalar form: the snapshot sequence for an unsharded server
	// (a unique, strictly increasing generation id), or the sum of the
	// per-shard sequence vector for a sharded one — a staleness indicator
	// only, since concurrent readers can observe different vectors with
	// equal sums; Shards is the authoritative generation identity there.
	Seq uint64
	// Shards is the per-shard sequence vector; nil for unsharded servers.
	Shards []uint64
}

// Recommend evaluates the snapshot's rules against the tuple at zero-based
// position idx. The tuple contents and the rules both come from the same
// published generation — identified by the returned sequence number — so
// the answer is snapshot-consistent: a tuple annotated after the snapshot
// was published is scored exactly as the snapshot's rules knew it. A tuple
// appended after the last publish reports ErrTupleIndex until the next
// batch publishes. See RecommendAt for the per-shard sequence vector of a
// sharded server.
func (s *Server) Recommend(idx int) ([]Recommendation, uint64, error) {
	recs, seq, err := s.RecommendAt(idx)
	return recs, seq.Seq, err
}

// RecommendAt behaves like Recommend but reports the full generation
// identity: on a sharded server each shard's rules are evaluated against
// that shard's own snapshot view of the tuple (per-shard consistency) and
// the vector says exactly which per-shard generations answered.
func (s *Server) RecommendAt(idx int) ([]Recommendation, ReadSeq, error) {
	if s.router != nil {
		recs, seqs, err := s.router.Recommend(idx)
		rs := ReadSeq{Seq: seqSum(seqs), Shards: seqs}
		if err != nil {
			return nil, rs, err
		}
		return publicShardRecommendations(recs), rs, nil
	}
	if s.follower != nil {
		// A follower's local sequence is meaningless to clients (it restarts
		// on re-bootstrap); advertise the replication watermark instead —
		// the primary sequence whose acknowledged writes are all visible in
		// this answer. Sample it before the read: the snapshot the read uses
		// can only be at or beyond the watermark's apply point.
		rs := ReadSeq{Seq: s.follower.Seq()}
		w := s.follower.World()
		recs, _, err := w.Core.Recommend(idx)
		if err != nil {
			return nil, rs, err
		}
		return publicRecommendations(recs, w.Rel.Dictionary()), rs, nil
	}
	recs, seq, err := s.core.Recommend(idx)
	if err != nil {
		return nil, ReadSeq{Seq: seq}, err
	}
	return publicRecommendations(recs, s.ds.rel.Dictionary()), ReadSeq{Seq: seq}, nil
}

func publicShardRecommendations(recs []shard.Recommendation) []Recommendation {
	out := make([]Recommendation, len(recs))
	for i, r := range recs {
		out[i] = Recommendation{
			Tuple:      r.Tuple,
			Annotation: r.Annotation,
			Rule:       publicShardRule(r.Rule),
		}
	}
	return out
}

// RecommendForTuple evaluates a not-yet-inserted tuple against the
// snapshot's rules (the paper's insert-trigger exploitation). As a pure
// read it never grows any dictionary: tokens the dataset has never seen
// are ignored, which cannot change the outcome — an unknown token cannot
// appear in any rule's LHS or RHS.
func (s *Server) RecommendForTuple(spec TupleSpec) ([]Recommendation, error) {
	if s.router != nil {
		recs := s.router.RecommendIncoming(shard.TupleSpec{Values: spec.Values, Annotations: spec.Annotations})
		return publicShardRecommendations(recs), nil
	}
	core, rel := s.world()
	dict := rel.Dictionary()
	items := make([]itemset.Item, 0, len(spec.Values)+len(spec.Annotations))
	for _, tok := range spec.Values {
		if it, ok := dict.Lookup(tok); ok {
			items = append(items, it)
		}
	}
	for _, tok := range spec.Annotations {
		if it, ok := dict.Lookup(tok); ok {
			items = append(items, it)
		}
	}
	tu := relation.NewTuple(items...)
	return publicRecommendations(core.RecommendIncoming(tu), dict), nil
}

// AddAnnotations submits a Case 3 batch and waits until it is applied and
// visible in the snapshot. The report covers the whole coalesced batch the
// updates rode in, which may include other callers' updates. On a sharded
// server the batch is split by annotation family and the owning shards
// commit their sub-batches in parallel; batch atomicity is per shard.
//
// Indexes are validated before any token is interned, so a rejected batch
// cannot grow the shared dictionary (which would let bad requests leak
// permanent state).
func (s *Server) AddAnnotations(ctx context.Context, batch []AnnotationUpdate) (UpdateReport, error) {
	if s.follower != nil {
		return UpdateReport{}, ErrFollower
	}
	if s.router != nil {
		rep, err := s.router.AddAnnotations(ctx, shardUpdates(batch))
		if err != nil {
			return UpdateReport{}, err
		}
		return s.stamped(publicReport(rep)), nil
	}
	if err := s.validateIndexes(batch); err != nil {
		return UpdateReport{}, err
	}
	dict := s.ds.rel.Dictionary()
	updates := make([]relation.AnnotationUpdate, 0, len(batch))
	for i, u := range batch {
		it, err := dict.InternAnnotation(u.Annotation)
		if err != nil {
			return UpdateReport{}, fmt.Errorf("annotadb: update %d: %w", i, err)
		}
		updates = append(updates, relation.AnnotationUpdate{Index: u.Tuple, Annotation: it})
	}
	rep, err := s.core.AddAnnotations(ctx, updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return s.stamped(publicReport(rep)), nil
}

func shardUpdates(batch []AnnotationUpdate) []shard.Update {
	out := make([]shard.Update, len(batch))
	for i, u := range batch {
		out[i] = shard.Update{Tuple: u.Tuple, Annotation: u.Annotation}
	}
	return out
}

// validateIndexes rejects out-of-range tuple positions up front. The
// relation only grows, so an index valid here stays valid at apply time.
func (s *Server) validateIndexes(batch []AnnotationUpdate) error {
	n := s.ds.rel.Len()
	for i, u := range batch {
		if u.Tuple < 0 || u.Tuple >= n {
			return fmt.Errorf("annotadb: update %d: %w: %d (relation has %d tuples)", i, relation.ErrTupleIndex, u.Tuple, n)
		}
	}
	return nil
}

// RemoveAnnotations submits an annotation-removal batch and waits until it
// is applied. Entries whose annotation is absent are skipped and reported.
func (s *Server) RemoveAnnotations(ctx context.Context, batch []AnnotationUpdate) (UpdateReport, error) {
	if s.follower != nil {
		return UpdateReport{}, ErrFollower
	}
	if s.router != nil {
		rep, err := s.router.RemoveAnnotations(ctx, shardUpdates(batch))
		if err != nil {
			return UpdateReport{}, err
		}
		return s.stamped(publicReport(rep)), nil
	}
	dict := s.ds.rel.Dictionary()
	updates := make([]relation.AnnotationUpdate, 0, len(batch))
	for i, u := range batch {
		it, ok := dict.Lookup(u.Annotation)
		if !ok {
			return UpdateReport{}, fmt.Errorf("annotadb: removal %d: annotation %q unknown to this dataset", i, u.Annotation)
		}
		if !it.IsAnnotation() {
			return UpdateReport{}, fmt.Errorf("annotadb: removal %d: token %q is a data value", i, u.Annotation)
		}
		updates = append(updates, relation.AnnotationUpdate{Index: u.Tuple, Annotation: it})
	}
	rep, err := s.core.RemoveAnnotations(ctx, updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return s.stamped(publicReport(rep)), nil
}

// AddTuples submits a tuple batch and waits until it is applied. The batch
// takes the paper's Case 1 path when any tuple carries annotations and the
// cheaper Case 2 path when none do. On a sharded server the batch fans out
// to every shard: each replica receives every tuple's data values plus the
// annotations its families own, in the same order.
func (s *Server) AddTuples(ctx context.Context, batch []TupleSpec) (UpdateReport, error) {
	if s.follower != nil {
		return UpdateReport{}, ErrFollower
	}
	if s.router != nil {
		specs := make([]shard.TupleSpec, len(batch))
		for i, t := range batch {
			specs[i] = shard.TupleSpec{Values: t.Values, Annotations: t.Annotations}
		}
		rep, err := s.router.AddTuples(ctx, specs)
		if err != nil {
			return UpdateReport{}, err
		}
		return s.stamped(publicReport(rep)), nil
	}
	dict := s.ds.rel.Dictionary()
	tuples := make([]relation.Tuple, 0, len(batch))
	for i, spec := range batch {
		tu, err := buildTuple(dict, spec.Values, spec.Annotations)
		if err != nil {
			return UpdateReport{}, fmt.Errorf("annotadb: tuple %d: %w", i, err)
		}
		tuples = append(tuples, tu)
	}
	rep, err := s.core.AddTuples(ctx, tuples)
	if err != nil {
		return UpdateReport{}, err
	}
	return s.stamped(publicReport(rep)), nil
}

// ApplyUpdateFile reads a Figure 14-format annotation batch and submits it.
// Like AddAnnotations, indexes are validated before tokens are interned.
func (s *Server) ApplyUpdateFile(ctx context.Context, r io.Reader) (UpdateReport, error) {
	if s.follower != nil {
		return UpdateReport{}, ErrFollower
	}
	lines, err := storage.ReadUpdateBatch(r, storage.Options{})
	if err != nil {
		return UpdateReport{}, err
	}
	n := s.serveLen()
	for _, u := range lines {
		if u.Index < 0 || u.Index >= n {
			return UpdateReport{}, fmt.Errorf("annotadb: update %d:%s: %w (relation has %d tuples)", u.Index+1, u.Token, relation.ErrTupleIndex, n)
		}
	}
	if s.router != nil {
		batch := make([]shard.Update, len(lines))
		for i, u := range lines {
			batch[i] = shard.Update{Tuple: u.Index, Annotation: u.Token}
		}
		rep, err := s.router.AddAnnotations(ctx, batch)
		if err != nil {
			return UpdateReport{}, err
		}
		return s.stamped(publicReport(rep)), nil
	}
	updates, err := storage.ResolveUpdates(s.ds.rel, lines)
	if err != nil {
		return UpdateReport{}, err
	}
	rep, err := s.core.AddAnnotations(ctx, updates)
	if err != nil {
		return UpdateReport{}, err
	}
	return s.stamped(publicReport(rep)), nil
}

// stamped records the snapshot sequence current after an acknowledged
// write on its report. The writer publishes before it acks, so the
// sequence loaded here is at or beyond the one that made the write
// visible — the report's Seq/SeqVector are valid read-your-writes
// watermarks (see UpdateReport.Seq).
func (s *Server) stamped(rep UpdateReport) UpdateReport {
	if s.router != nil {
		rep.SeqVector = s.router.Seqs()
		rep.Seq = seqSum(rep.SeqVector)
		return rep
	}
	rep.Seq = s.core.Seq()
	return rep
}

// serveLen returns the live served relation length (merged for sharded).
func (s *Server) serveLen() int {
	if s.router != nil {
		return s.router.Len()
	}
	_, rel := s.world()
	return rel.Len()
}

// ShardServerStats is one shard's serving statistics inside ServerStats.
type ShardServerStats struct {
	// Shard is the shard index.
	Shard int
	// SnapshotSeq, Tuples, and RuleCount identify the shard's published
	// snapshot.
	SnapshotSeq uint64
	Tuples      int
	RuleCount   int
	// RelVersion and LiveRelVersion measure the shard's snapshot staleness
	// in replica mutations.
	RelVersion     uint64
	LiveRelVersion uint64
	// Attachments and DistinctAnnotations describe the shard's share of the
	// annotation load (its families only).
	Attachments         int
	DistinctAnnotations int
	// Requests, Batches, Coalesced, and Reads are the shard's serving
	// counters; Shed counts writes this shard refused with ErrOverloaded.
	Requests  uint64
	Batches   uint64
	Coalesced uint64
	Reads     uint64
	Shed      uint64
	// Remines counts the shard engine's full re-mine fallbacks.
	Remines int
}

// StageLatency is one write-pipeline stage's latency digest: observation
// count, mean, tail quantiles (bucket-resolution estimates, never below the
// true quantile's bucket), and the exact maximum.
type StageLatency struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// WriteLatencyStats breaks write latency down by pipeline stage: Queue is
// admission-to-apply wait, Apply the engine maintenance pass, Fsync the
// wait for the covering group-commit fsync (zero observations unless the
// journal group-commits), and Publish the snapshot publication. Sharded
// servers share one recorder across shards, so the digests are aggregates.
type WriteLatencyStats struct {
	Queue   StageLatency
	Apply   StageLatency
	Fsync   StageLatency
	Publish StageLatency
}

func stageLatency(s metrics.Summary) StageLatency {
	return StageLatency{Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
}

func writeLatencyStats(l serve.LatencyStats) WriteLatencyStats {
	return WriteLatencyStats{
		Queue:   stageLatency(l.Queue),
		Apply:   stageLatency(l.Apply),
		Fsync:   stageLatency(l.Fsync),
		Publish: stageLatency(l.Publish),
	}
}

// ServerStats reports serving activity and the published snapshot.
type ServerStats struct {
	// SnapshotSeq identifies the current snapshot: the publish sequence for
	// an unsharded server, the sum of the per-shard sequence vector for a
	// sharded one (a staleness indicator; SeqVector is the authoritative
	// generation identity).
	SnapshotSeq uint64
	// Tuples is the relation size the snapshot's rules refer to (for a
	// sharded server, the merged generation: the minimum per-shard
	// snapshot size).
	Tuples int
	// RuleCount is the number of valid rules in the snapshot (summed
	// across shards; per-shard rule sets are disjoint).
	RuleCount int
	// RelVersion is the relation mutation counter the snapshot was
	// published at; LiveRelVersion is the counter now. Their difference is
	// the snapshot's staleness in relation mutations (0 when idle). For a
	// sharded server both are summed across shards, so the difference is
	// the aggregate staleness.
	RelVersion     uint64
	LiveRelVersion uint64
	// Attachments and DistinctAnnotations describe the snapshot's relation
	// generation: total (tuple, annotation) pairs and annotations present
	// on at least one tuple. Both come from the frozen frequency tables, so
	// polling them never blocks any writer.
	Attachments         int
	DistinctAnnotations int
	// Requests, Batches, Coalesced, Reads are serving counters: write
	// requests accepted, engine applications after coalescing, requests
	// that shared an application, and snapshot reads served. Shed counts
	// writes refused with ErrOverloaded by the bounded admission queue
	// (not included in Requests).
	Requests  uint64
	Batches   uint64
	Coalesced uint64
	Reads     uint64
	Shed      uint64
	// Latency breaks accepted writes down by pipeline stage.
	Latency WriteLatencyStats
	// Remines counts fallbacks to a full re-mine over the server's life.
	Remines int
	// Shards is the shard count (0 for an unsharded server) and SeqVector
	// the per-shard snapshot sequence vector (nil when unsharded).
	Shards    int
	SeqVector []uint64
	// PerShard carries each shard's serving statistics (nil when
	// unsharded).
	PerShard []ShardServerStats
	// Replication is the follower's position relative to its primary (nil
	// on a primary). On a follower, SnapshotSeq above is the LOCAL apply
	// generation (it restarts at every re-bootstrap); Replication.Seq is
	// the primary-sequence watermark clients should reason about, and the
	// RelVersion/LiveRelVersion staleness measures the local apply loop,
	// not distance from the primary.
	Replication *ReplicationStats
}

// Stats returns current serving statistics.
func (s *Server) Stats() ServerStats {
	if s.router != nil {
		st := s.router.Stats()
		out := ServerStats{
			SnapshotSeq:         seqSum(st.Seqs),
			Tuples:              st.N,
			RuleCount:           st.RuleCount,
			Attachments:         st.Attachments,
			DistinctAnnotations: st.DistinctAnnotations,
			Requests:            st.Requests,
			Batches:             st.Batches,
			Coalesced:           st.Coalesced,
			Reads:               st.Reads,
			Shed:                st.Shed,
			Latency:             writeLatencyStats(st.Latency),
			Remines:             st.Remines,
			Shards:              st.Shards,
			SeqVector:           st.Seqs,
		}
		for _, ss := range st.PerShard {
			out.RelVersion += ss.RelVersion
			out.LiveRelVersion += ss.LiveRelVersion
			out.PerShard = append(out.PerShard, ShardServerStats{
				Shard:               ss.Shard,
				SnapshotSeq:         ss.Seq,
				Tuples:              ss.N,
				RuleCount:           ss.RuleCount,
				RelVersion:          ss.RelVersion,
				LiveRelVersion:      ss.LiveRelVersion,
				Attachments:         ss.Attachments,
				DistinctAnnotations: ss.DistinctAnnotations,
				Requests:            ss.Requests,
				Batches:             ss.Batches,
				Coalesced:           ss.Coalesced,
				Reads:               ss.Reads,
				Shed:                ss.Shed,
				Remines:             ss.Engine.Remines,
			})
		}
		return out
	}
	core, _ := s.world()
	st := core.Stats()
	return ServerStats{
		Replication:         s.Replication(),
		SnapshotSeq:         st.Seq,
		Tuples:              st.N,
		RuleCount:           st.RuleCount,
		RelVersion:          st.RelVersion,
		LiveRelVersion:      st.LiveRelVersion,
		Attachments:         st.Attachments,
		DistinctAnnotations: st.DistinctAnnotations,
		Requests:            st.Requests,
		Batches:             st.Batches,
		Coalesced:           st.Coalesced,
		Reads:               st.Reads,
		Shed:                st.Shed,
		Latency:             writeLatencyStats(st.Latency),
		Remines:             st.Engine.Remines,
	}
}
