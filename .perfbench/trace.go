package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// traceHeader carries a traced request's id from the client to the
// handler middleware. Untraced requests carry none.
const traceHeader = "X-Perfbench-Request"

// span is one timed interval at a layer boundary. Request spans share the
// request id; direct layer calls have request id 0. Times are nanoseconds
// since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A request's spans have
// fixed ids derived from its request id: the client span, its generator
// lag child, and the handler child recorded by the middleware.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64 // ids of direct-call spans, above every request span id
}

func clientSpanID(req uint64) uint64  { return req * 4 }
func lagSpanID(req uint64) uint64     { return req*4 + 1 }
func handlerSpanID(req uint64) uint64 { return req*4 + 2 }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times fn as a direct layer call span and returns its duration.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: 1<<62 + t.next, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return end - start
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// loopbackPath is the traced run's empty handler.
const loopbackPath = "/perfbench/loopback"

// middleware records a handler span for every request that carries the
// trace header, around the production handler, and answers loopbackPath
// itself with an empty 200.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == loopbackPath {
			w.WriteHeader(http.StatusOK)
			return
		}
		v := r.Header.Get(traceHeader)
		if v == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		next.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		req, _ := strconv.ParseUint(v, 10, 64)
		t.add(span{
			ID: handlerSpanID(req), Parent: clientSpanID(req), Req: req,
			Name:  "httpapi." + strings.TrimPrefix(r.URL.Path, "/"),
			Start: int64(start), End: int64(end),
		})
	})
}

// addClient records a traced request's client span and its generator lag
// child.
func (t *tracer) addClient(s sample) {
	t.add(span{ID: clientSpanID(s.id), Req: s.id, Name: "client." + classNames[s.cls], Start: s.due, End: s.done})
	t.add(span{ID: lagSpanID(s.id), Parent: clientSpanID(s.id), Req: s.id, Name: "load.lag", Start: s.due, End: s.send})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sortSlice(ivs, func(x, y iv) bool { return x.a < y.a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
