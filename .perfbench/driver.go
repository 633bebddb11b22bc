package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// spinWindow is how early before a due time the generator stops sleeping
// and spins. Go's timers overshoot by up to ~1ms; a raw nanosleep
// overshoots by the kernel timer slack (~50-100µs), which the spin absorbs.
const spinWindow = 200 * time.Microsecond

// waitUntil blocks until t with sub-100µs lateness when the CPU is free.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
			continue
		}
		runtime.Gosched()
	}
}

// sample is one request as the client saw it. Times are nanoseconds since
// the run's epoch. In open loop due is the scheduled send time; in closed
// loop it is when the previous request on the connection completed.
type sample struct {
	cls              class
	conn             int
	id               uint64
	due, send, done  int64
	updates          int
	attached         int // attachment-count change once acknowledged
	status           int
	failed, measured bool
	traced           bool
}

// latency is the client-observed latency: from the due time in open loop
// (so a stall also charges the requests queued behind it), from the send
// in closed loop.
func (s *sample) latency(closed bool) time.Duration {
	if closed {
		return time.Duration(s.done - s.send)
	}
	return time.Duration(s.done - s.due)
}

// seqMark is a read-your-writes watermark over one server's sequence space:
// a scalar for an unsharded server, a per-shard vector for a sharded one.
// Every acknowledged write and every answered read raises it; a read sent
// after the mark was raised must answer at or above it.
type seqMark struct {
	mu  sync.Mutex
	vec []uint64
}

func (m *seqMark) load() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.vec...)
}

func (m *seqMark) raise(v []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.vec) < len(v) {
		m.vec = append(m.vec, make([]uint64, len(v)-len(m.vec))...)
	}
	for i, x := range v {
		if x > m.vec[i] {
			m.vec[i] = x
		}
	}
}

// below reports whether v is below mark in any component.
func below(v, mark []uint64) bool {
	for i, m := range mark {
		if i >= len(v) || v[i] < m {
			return true
		}
	}
	return false
}

// reply is the part of an httpapi answer the checks read.
type reply struct {
	Seq       uint64   `json:"seq"`
	SeqVector []uint64 `json:"seq_vector"`
	Tuple     *int     `json:"tuple"`
	Anchor    string   `json:"anchor"`
}

func (r *reply) seqs() []uint64 {
	if r.SeqVector != nil {
		return r.SeqVector
	}
	return []uint64{r.Seq}
}

// request is an op rendered to HTTP before its due time, so encoding is
// not charged to the request's latency.
type request struct {
	op     op
	method string
	path   string
	body   []byte
}

func render(o op) request {
	r := request{op: o, method: http.MethodGet}
	switch o.cls {
	case clsRecommend:
		r.path = "/recommend?tuple=" + strconv.Itoa(o.tuple)
	case clsCorrelate:
		r.path = "/correlate?k=10&anchor=" + url.QueryEscape(o.anchor)
	case clsAnnotate:
		r.method, r.path = http.MethodPost, "/annotations"
		r.body, _ = json.Marshal(map[string]any{"updates": o.updates, "remove": o.remove}) // plain structs always encode
	case clsTuples:
		type tuple struct {
			Values      []string `json:"values"`
			Annotations []string `json:"annotations"`
		}
		ts := make([]tuple, len(o.tuples))
		for i, t := range o.tuples {
			ts[i] = tuple{t.Values, t.Annotations}
		}
		r.method, r.path = http.MethodPost, "/tuples"
		r.body, _ = json.Marshal(map[string]any{"tuples": ts})
	}
	return r
}

// checks accumulates the run's correctness violations.
type checks struct {
	mu       sync.Mutex
	failures []string
	counts   map[string]int
}

func (c *checks) fail(kind, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[kind]++
	if c.counts[kind] <= 3 {
		c.failures = append(c.failures, kind+": "+fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.counts) == 0
}

// conn is one load connection: an HTTP client limited to a single TCP
// connection, its target, and the watermarks its checks use.
type conn struct {
	idx     int
	hc      *http.Client
	base    string
	mark    *seqMark // the target's read-your-writes watermark
	acked   *seqMark // writes acked on the primary (the follower barrier)
	barrier bool     // reads carry min_seq = acked watermark (follower reads)
	chk     *checks
	traced  bool // every request carries the trace header
	epoch   time.Time
	acks    *ackLog
	nextID  *atomic.Uint64
	// loopback are the traced run's round trips to the empty handler.
	loopback []time.Duration
}

// loopbackEvery is how many requests a traced connection sends per round
// trip to the empty handler.
const loopbackEvery = 10

// timeLoopback times a request to the empty handler the traced run's
// middleware answers in front of the production handler: the round trip of
// loopback, net/http and the client alone.
func (c *conn) timeLoopback() {
	start := time.Now()
	resp, err := c.hc.Get(c.base + loopbackPath)
	if err != nil {
		c.chk.fail("probe", "loopback: %v", err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.loopback = append(c.loopback, time.Since(start))
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (c *conn) now() int64 { return int64(time.Since(c.epoch)) }

// do sends one request and records it. due is the sample's due time. In a
// traced run every request carries the trace header.
func (c *conn) do(r request, due int64, measured bool) sample {
	s := sample{cls: r.op.cls, conn: c.idx, due: due, measured: measured, traced: c.traced, attached: r.op.attachDelta()}
	if r.op.cls == clsAnnotate {
		s.updates = len(r.op.updates)
	} else if r.op.cls == clsTuples {
		s.updates = len(r.op.tuples)
	}
	path := r.path
	isRead := r.op.cls == clsRecommend || r.op.cls == clsCorrelate
	var minSeq uint64
	if isRead && c.barrier {
		if v := c.acked.load(); len(v) > 0 {
			minSeq = v[0]
		}
		path += "&wait_ms=5000&min_seq=" + strconv.FormatUint(minSeq, 10)
	}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+path, body)
	if err != nil {
		panic(err) // the URL is built from a parsed base and fixed paths
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		s.id = c.nextID.Add(1)
		req.Header.Set(traceHeader, strconv.FormatUint(s.id, 10))
	}
	var mark []uint64
	if isRead {
		mark = c.mark.load()
	}
	s.send = c.now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = c.now()
	if err != nil {
		s.failed = true
		c.chk.failf(r.op, "transport: %v", err)
		return s
	}
	if s.status == http.StatusNotFound && r.op.cls == clsCorrelate {
		// An unknown anchor is a miss, not an error; every anchor here
		// occurs in the seed relation, so a miss is a wrong answer.
		c.chk.fail("correlate_miss", "anchor %q answered 404", r.op.anchor)
		return s
	}
	if s.status != http.StatusOK {
		s.failed = true
		c.chk.failf(r.op, "status %d: %s", s.status, strings.TrimSpace(string(data)))
		return s
	}
	var rep reply
	if err := json.Unmarshal(data, &rep); err != nil {
		c.chk.fail("bad_reply", "%s: %v", r.op, err)
		return s
	}
	seqs := rep.seqs()
	switch r.op.cls {
	case clsRecommend, clsCorrelate:
		if below(seqs, mark) {
			c.chk.fail("seq_regression", "%s answered seq %v below watermark %v", r.op, seqs, mark)
		}
		if c.barrier && seqs[0] < minSeq {
			c.chk.fail("barrier_violation", "%s answered seq %d below min_seq %d", r.op, seqs[0], minSeq)
		}
		if r.op.cls == clsRecommend && (rep.Tuple == nil || *rep.Tuple != r.op.tuple) {
			c.chk.fail("bad_reply", "%s answered for another tuple", r.op)
		}
		if r.op.cls == clsCorrelate && rep.Anchor != r.op.anchor {
			c.chk.fail("bad_reply", "%s answered anchor %q", r.op, rep.Anchor)
		}
		c.mark.raise(seqs)
	case clsAnnotate, clsTuples:
		// Coalesced writes share one report, so Applied is not per
		// request; the run checks the total attachment count instead.
		c.writeAcked(seqs, s.done)
	}
	return s
}

// attachDelta is how an acknowledged write changes the relation's
// attachment count: the planner only attaches absent pairs and only
// detaches pairs it attached.
func (o op) attachDelta() int {
	switch {
	case o.cls == clsAnnotate && o.remove:
		return -len(o.updates)
	case o.cls == clsAnnotate:
		return len(o.updates)
	case o.cls == clsTuples:
		n := 0
		for _, t := range o.tuples {
			n += len(t.Annotations)
		}
		return n
	}
	return 0
}

func (c *conn) writeAcked(seqs []uint64, at int64) {
	c.mark.raise(seqs)
	c.acked.raise(seqs)
	if c.acks != nil {
		c.acks.add(seqs, at)
	}
}

func (c *checks) failf(o op, format string, args ...any) {
	c.fail("request_failed", "%s: "+format, append([]any{o}, args...)...)
}

// ackLog remembers when each write was acknowledged, keyed by the
// sequence vector it was acked at, for the stream delivery metric.
type ackLog struct {
	mu   sync.Mutex
	acks []ack
}

type ack struct {
	seqs []uint64
	at   int64
}

func (l *ackLog) add(seqs []uint64, at int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks = append(l.acks, ack{append([]uint64(nil), seqs...), at})
}

// ackedAt returns the earliest acknowledgement whose shard component
// reached seq.
func (l *ackLog) ackedAt(shard int, seq uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best, found := int64(0), false
	for _, a := range l.acks {
		if shard < len(a.seqs) && a.seqs[shard] >= seq && (!found || a.at < best) {
			best, found = a.at, true
		}
	}
	return best, found
}

// runOpen drives one connection through its pre-rendered schedule.
// Requests due in [warmup, warmup+window) are measured; the schedule ends
// with the first request due after the window, sent but not measured.
func runOpen(c *conn, reqs []request, start time.Time, warmup, window time.Duration) []sample {
	out := make([]sample, 0, len(reqs))
	startNs := int64(start.Sub(c.epoch))
	for i, r := range reqs {
		waitUntil(start.Add(r.op.due))
		measured := r.op.due >= warmup && r.op.due < warmup+window
		out = append(out, c.do(r, startNs+int64(r.op.due), measured))
		if c.traced && measured && i%loopbackEvery == 0 && i+1 < len(reqs) {
			// Like a scheduled request, the round trip starts after an idle
			// wait, not right behind a response while the server's
			// connection is still awake. It is skipped when the next
			// request is due too soon for that.
			next := start.Add(reqs[i+1].op.due)
			if gap := time.Until(next); gap > time.Millisecond {
				waitUntil(next.Add(-gap / 2))
				c.timeLoopback()
			}
		}
	}
	return out
}

// runClosed drives one connection in closed loop until the window ends.
func runClosed(c *conn, p *planner, start time.Time, warmup, window time.Duration) []sample {
	var out []sample
	end := start.Add(warmup + window)
	due := int64(start.Sub(c.epoch))
	for {
		// The clock is read before the op is planned: a planned op is
		// always sent, so the planner's annotation model stays exact.
		now := time.Now()
		if !now.Before(end) {
			return out
		}
		r := render(p.next())
		s := c.do(r, due, now.Sub(start) >= warmup)
		out = append(out, s)
		due = s.done
		if c.traced && s.measured && len(out)%loopbackEvery == 0 {
			c.timeLoopback()
			due = c.now()
		}
	}
}

// sseStats is what the /events subscriber saw.
type sseStats struct {
	Events      int `json:"events"`
	Resumes     int `json:"resumes"`
	Gaps        int `json:"gaps"`
	Regressions int `json:"cursor_regressions"`
	deliveries  []time.Duration
}

// subscribe follows GET /events until ctx ends, dropping the stream and
// resuming it with Last-Event-ID every resume interval. It checks that
// cursors arrive dense and increasing across every resume, and times each
// event from the acknowledgement of the write that produced it.
func subscribe(ctx context.Context, base string, resume time.Duration, acks *ackLog, epoch time.Time, chk *checks) *sseStats {
	st := &sseStats{}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var last uint64
	type received struct {
		shard int
		seqs  []uint64
		at    int64
	}
	var got []received
	for ctx.Err() == nil {
		rctx, cancel := context.WithTimeout(ctx, resume)
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+"/events", nil)
		if err != nil {
			cancel()
			panic(err)
		}
		if last > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(last, 10))
			st.Resumes++
		}
		resp, err := hc.Do(req)
		if err != nil {
			cancel()
			if ctx.Err() == nil && rctx.Err() == nil {
				chk.fail("sse", "connect: %v", err)
			}
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var id uint64
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			case strings.HasPrefix(line, "event: gap"):
				st.Gaps++
			case strings.HasPrefix(line, "data: "):
				at := int64(time.Since(epoch))
				var ev struct {
					Shard     int      `json:"shard"`
					Seq       uint64   `json:"seq"`
					SeqVector []uint64 `json:"seq_vector"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					chk.fail("sse", "bad event: %v", err)
					continue
				}
				if id == 0 {
					continue
				}
				st.Events++
				switch {
				case last > 0 && id <= last:
					st.Regressions++
				case last > 0 && id > last+1:
					st.Gaps++
				}
				last, id = id, 0
				seqs := ev.SeqVector
				if seqs == nil {
					seqs = []uint64{ev.Seq}
				}
				got = append(got, received{ev.Shard, seqs, at})
			}
		}
		resp.Body.Close()
		cancel()
	}
	for _, r := range got {
		if r.shard < len(r.seqs) {
			if at, ok := acks.ackedAt(r.shard, r.seqs[r.shard]); ok {
				st.deliveries = append(st.deliveries, time.Duration(r.at-at))
			}
		}
	}
	if st.Regressions > 0 {
		chk.fail("sse_cursor_regression", "%d cursor regressions", st.Regressions)
	}
	if st.Gaps > 0 {
		chk.fail("sse_gap", "%d gaps", st.Gaps)
	}
	return st
}
