package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"annotadb/internal/workload"
)

// spec is one workload's full configuration. It is echoed into every
// result, so a run's numbers can always be traced back to its shape.
type spec struct {
	Name          string  `json:"name"`
	Corpus        string  `json:"corpus"`
	Tuples        int     `json:"tuples"`
	MinSupport    float64 `json:"min_support"`
	MinConfidence float64 `json:"min_confidence"`
	// Shards > 1 serves through the family-sharded router.
	Shards int `json:"shards"`
	// Follower boots one in-process read replica; reads go to it with the
	// writer's acked watermark as min_seq.
	Follower bool `json:"follower"`
	// Closed drives a closed loop (each connection sends its next request
	// when the previous one is answered); otherwise each connection sends
	// on a seeded schedule at its group's Rate.
	Closed bool `json:"closed_loop"`
	// Groups are the load connections, each with its own target, rate and
	// operation mix.
	Groups []group `json:"connections"`
	// SSEResume > 0 opens one /events subscriber that drops and resumes
	// its stream every SSEResume.
	SSEResume time.Duration `json:"sse_resume_ns"`
	// CheckpointBytes is the WAL size checkpoint policy (0: the server
	// default, 4 MiB).
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Setups is how many timed set-ups a run makes, after one untimed
	// cold one (setup_s is their median); CrashBatches is K, the seeded
	// batches in the crash image; Reopens is how many times the crash
	// image is reopened (recovery_s is their median).
	Setups       int `json:"setups"`
	CrashBatches int `json:"crash_batches"`
	Reopens      int `json:"reopens"`
}

// warmup is how long each connection runs its schedule untimed before the
// measured window.
const warmup = time.Second

// group is one load connection: where it sends, how often, and what.
type group struct {
	// Follower sends to the follower instead of the primary.
	Follower bool `json:"to_follower"`
	// Rate is the open-loop request rate (requests/s) of the connection.
	Rate float64 `json:"rate"`
	Mix  mix     `json:"mix"`
}

// mix is an operation mix in relative weights.
type mix struct {
	Recommend float64 `json:"recommend"`
	Correlate float64 `json:"correlate"`
	Annotate  float64 `json:"annotate"`
	Tuples    float64 `json:"tuples"`
}

func (m mix) writes() bool { return m.Annotate > 0 || m.Tuples > 0 }

// All workloads run durable with fsync=always and every other serving knob
// at annotserve's default. Every workload carries every request class, so
// every end-to-end metric exists on every workload; the mix decides which
// layers do most of the work.
var workloads = map[string]spec{
	"read-mostly": {
		Name: "read-mostly", Corpus: "paper", Tuples: 8000, MinSupport: 0.1, MinConfidence: 0.6,
		Groups: []group{
			{Rate: 300, Mix: mix{Recommend: 0.92, Correlate: 0.06, Annotate: 0.015, Tuples: 0.005}},
			{Rate: 300, Mix: mix{Recommend: 0.92, Correlate: 0.06, Annotate: 0.015, Tuples: 0.005}},
		},
		Setups: 16, CrashBatches: 300, Reopens: 9,
	},
	"write-heavy": {
		Name: "write-heavy", Corpus: "paper", Tuples: 64000, MinSupport: 0.1, MinConfidence: 0.6,
		Closed: true,
		// Only the first connection reads, so the second one's writes land
		// between any two of its correlate queries: every query rebuilds
		// the 64K index instead of sometimes finding the last one cached.
		Groups: []group{
			{Mix: mix{Recommend: 0.12, Correlate: 0.08, Annotate: 0.70, Tuples: 0.10}},
			{Mix: mix{Annotate: 0.90, Tuples: 0.10}},
		},
		CheckpointBytes: 32 << 10,
		Setups:          8, CrashBatches: 450, Reopens: 5,
	},
	"sharded-mixed": {
		Name: "sharded-mixed", Corpus: "metrics", Tuples: 8000, MinSupport: 0.05, MinConfidence: 0.5,
		Shards: 4,
		Groups: []group{
			{Rate: 120, Mix: mix{Recommend: 0.60, Correlate: 0.15, Annotate: 0.20, Tuples: 0.05}},
		},
		SSEResume: 2 * time.Second,
		Setups:    7, CrashBatches: 1000, Reopens: 5,
	},
	"follower-read": {
		Name: "follower-read", Corpus: "paper", Tuples: 8000, MinSupport: 0.1, MinConfidence: 0.6,
		Follower: true,
		Groups: []group{
			{Rate: 5, Mix: mix{Annotate: 0.7, Tuples: 0.3}},
			{Follower: true, Rate: 300, Mix: mix{Recommend: 0.85, Correlate: 0.15}},
		},
		Setups: 7, CrashBatches: 300, Reopens: 5,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Write batch shapes, the same in every workload: an attach (and the
// matching detach) batch holds attachBatch updates; a connection keeps
// detachLag acked attach batches outstanding before each further annotate
// operation undoes the oldest one; a POST /tuples batch holds tupleBatch
// tuples.
const (
	attachBatch = 4
	detachLag   = 4
	tupleBatch  = 1
)

// class is a request class; each has its own latency metrics.
type class int

const (
	clsRecommend class = iota
	clsCorrelate
	clsAnnotate
	clsTuples
	numClasses
)

var classNames = [numClasses]string{"recommend", "correlate", "annotate", "tuples"}

// route is the httpapi route a class is served by.
var classRoutes = [numClasses]string{"recommend", "correlate", "annotations", "tuples"}

// op is one generated request.
type op struct {
	cls class
	// due is the open-loop send time, as an offset from the schedule start.
	due time.Duration
	// tuple is the /recommend position; anchor the /correlate anchor.
	tuple  int
	anchor string
	// updates is an attach (remove=false) or detach (remove=true) batch.
	updates []workload.TokenUpdate
	remove  bool
	tuples  []workload.TokenTuple
}

// corpus is the seeded input of one run: the seed relation in token form,
// the annotation vocabulary writes draw from, and the correlate anchors.
type corpus struct {
	base    []workload.TokenTuple
	vocab   []string
	anchors []string
}

func newCorpus(s spec, seed int64) (*corpus, error) {
	st, err := workload.NewStream(s.Corpus, seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{base: st.Base(s.Tuples)}
	seen := map[string]bool{}
	for _, t := range c.base {
		for _, a := range t.Annotations {
			if !seen[a] {
				seen[a] = true
				c.vocab = append(c.vocab, a)
			}
		}
	}
	sort.Strings(c.vocab)
	// Every anchor occurs in the seed relation, so no anchor query misses.
	c.anchors = c.vocab
	return c, nil
}

// planner generates one connection's operations, deterministic in the seed
// and the connection index. A writing connection owns the seed tuples whose
// position is congruent to its index modulo the writer count, and keeps an
// exact model of their annotations: every attach batch adds only pairs
// that are absent, and every detach undoes exactly one earlier attach
// batch. The relation's attachment count after the run is therefore known
// exactly, and annotation density stays within detachLag batches of the
// seed's.
type planner struct {
	s       spec
	g       group
	c       *corpus
	rng     *rand.Rand
	tuples  workload.Stream
	owned   []int
	has     map[int]map[string]bool
	pending [][]workload.TokenUpdate
	// credit is the smooth weighted round-robin state that interleaves the
	// classes in exact proportion to the mix.
	credit [numClasses]float64
	// arrivals are the open-loop send times: a fixed count spread
	// uniformly at random over the horizon (a Poisson process conditioned
	// on its count, so every run offers exactly the same load).
	arrivals []time.Duration
	clock    time.Duration
}

func newPlanner(s spec, c *corpus, seed int64, conn, writer, writers int) (*planner, error) {
	p := &planner{
		s:   s,
		g:   s.Groups[conn],
		c:   c,
		rng: rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 17)),
		has: map[int]map[string]bool{},
	}
	if p.g.Mix.writes() {
		st, err := workload.NewStream(s.Corpus, seed*31+int64(conn)+1)
		if err != nil {
			return nil, err
		}
		p.tuples = st
		for i := writer; i < len(c.base); i += writers {
			p.owned = append(p.owned, i)
			set := map[string]bool{}
			for _, a := range c.base[i].Annotations {
				set[a] = true
			}
			p.has[i] = set
		}
	}
	return p, nil
}

// schedule fixes the open-loop arrivals over the horizon: rate×horizon
// send times drawn uniformly at random.
func (p *planner) schedule(horizon time.Duration) {
	n := int(p.g.Rate * horizon.Seconds())
	p.arrivals = make([]time.Duration, n)
	for i := range p.arrivals {
		p.arrivals[i] = time.Duration(p.rng.Int63n(int64(horizon)))
	}
	sortSlice(p.arrivals, func(a, b time.Duration) bool { return a < b })
}

// next returns the connection's next operation. In open loop its due time
// is the next scheduled arrival; past the schedule, arrivals continue at
// exponential gaps.
func (p *planner) next() op {
	if p.g.Rate > 0 {
		if len(p.arrivals) > 0 {
			p.clock, p.arrivals = p.arrivals[0], p.arrivals[1:]
		} else {
			p.clock += time.Duration(p.rng.ExpFloat64() / p.g.Rate * float64(time.Second))
		}
	}
	o := p.pick()
	o.due = p.clock
	return o
}

func (p *planner) pick() op {
	m := p.g.Mix
	weights := [numClasses]float64{m.Recommend, m.Correlate, m.Annotate, m.Tuples}
	best, total := class(0), 0.0
	for cl, w := range weights {
		p.credit[cl] += w
		total += w
		if p.credit[cl] > p.credit[best] {
			best = class(cl)
		}
	}
	p.credit[best] -= total
	switch best {
	case clsRecommend:
		return op{cls: clsRecommend, tuple: p.rng.Intn(len(p.c.base))}
	case clsCorrelate:
		return op{cls: clsCorrelate, anchor: p.c.anchors[p.rng.Intn(len(p.c.anchors))]}
	case clsAnnotate:
		return p.annotate()
	default:
		return op{cls: clsTuples, tuples: p.tuples.Tuples(tupleBatch)}
	}
}

// annotate plans an attach batch of absent pairs, or, once detachLag
// batches are outstanding, the detach of the oldest one.
func (p *planner) annotate() op {
	if len(p.pending) >= detachLag {
		b := p.pending[0]
		p.pending = p.pending[1:]
		for _, u := range b {
			delete(p.has[u.Tuple], u.Annotation)
		}
		return op{cls: clsAnnotate, updates: b, remove: true}
	}
	b := make([]workload.TokenUpdate, 0, attachBatch)
	for len(b) < attachBatch {
		t := p.owned[p.rng.Intn(len(p.owned))]
		a := p.c.vocab[p.rng.Intn(len(p.c.vocab))]
		if p.has[t][a] {
			continue
		}
		p.has[t][a] = true
		b = append(b, workload.TokenUpdate{Tuple: t, Annotation: a})
	}
	p.pending = append(p.pending, b)
	return op{cls: clsAnnotate, updates: b}
}

// writerIndexes numbers the writing connections of a workload.
func writerIndexes(s spec) (idx []int, writers int) {
	idx = make([]int, len(s.Groups))
	for i, g := range s.Groups {
		idx[i] = -1
		if g.Mix.writes() {
			idx[i] = writers
			writers++
		}
	}
	return idx, writers
}

func (o op) String() string {
	switch o.cls {
	case clsRecommend:
		return "recommend " + strconv.Itoa(o.tuple)
	case clsCorrelate:
		return "correlate " + o.anchor
	case clsAnnotate:
		return fmt.Sprintf("annotate remove=%v %v", o.remove, o.updates)
	default:
		return fmt.Sprintf("tuples %d", len(o.tuples))
	}
}
