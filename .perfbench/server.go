package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
)

// endpoint is one server behind the production httpapi handler on a
// loopback listener — what cmd/annotserve runs, booted in-process.
type endpoint struct {
	srv        *annotadb.Server
	url        string
	hs         *http.Server
	stopStream context.CancelFunc
	served     chan error
}

// listen serves srv on a fresh loopback listener. wrap, when non-nil,
// wraps the handler (the traced run's timing middleware).
func listen(srv *annotadb.Server, wrap func(http.Handler) http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	streamCtx, stop := context.WithCancel(context.Background())
	var h http.Handler = httpapi.New(srv, streamCtx)
	if wrap != nil {
		h = wrap(h)
	}
	e := &endpoint{
		srv:        srv,
		url:        "http://" + ln.Addr().String(),
		hs:         &http.Server{Handler: h},
		stopStream: stop,
		served:     make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the endpoint down as annotserve does: event streams first,
// then in-flight requests, then the serving core (a durable server writes
// its final checkpoint).
func (e *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.stopStream()
	shutdownErr := e.hs.Shutdown(ctx)
	closeErr := e.srv.Close(ctx)
	<-e.served
	return errors.Join(shutdownErr, closeErr)
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz did not answer 200 within 30s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// deployment is the system under test: a durable primary and, for
// follower-read, one read replica tailing it.
type deployment struct {
	primary  *endpoint
	follower *endpoint
	dir      string
}

func (s spec) options() annotadb.Options {
	return annotadb.Options{MinSupport: s.MinSupport, MinConfidence: s.MinConfidence}
}

func (s spec) durability(dir string, checkpointBytes int64) annotadb.DurabilityOptions {
	return annotadb.DurabilityOptions{Dir: dir, Shards: s.Shards, Fsync: "always", CheckpointBytes: checkpointBytes}
}

// dataset builds the seed relation from the corpus tokens.
func (c *corpus) dataset() (*annotadb.Dataset, error) {
	ds := annotadb.NewDataset()
	for i, t := range c.base {
		if _, err := ds.AddTuple(t.Values, t.Annotations); err != nil {
			return nil, fmt.Errorf("seed tuple %d: %w", i, err)
		}
	}
	return ds, nil
}

// openPrimary opens (bootstraps, or recovers when dir holds state) the
// durable primary and serves it.
func openPrimary(s spec, c *corpus, dir string, checkpointBytes int64, wrap func(http.Handler) http.Handler) (*endpoint, *annotadb.Engine, annotadb.RecoveryReport, error) {
	ds := annotadb.NewDataset()
	if !annotadb.HasDurableState(dir) {
		var err error
		if ds, err = c.dataset(); err != nil {
			return nil, nil, annotadb.RecoveryReport{}, err
		}
	}
	eng, rec, err := annotadb.OpenDurableDataset(ds, s.options(), s.durability(dir, checkpointBytes))
	if err != nil {
		return nil, nil, rec, fmt.Errorf("open durable %s: %w", dir, err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{Shards: s.Shards})
	if err != nil {
		return nil, nil, rec, err
	}
	ep, err := listen(srv, wrap)
	if err != nil {
		_ = srv.Close(context.Background())
		return nil, nil, rec, err
	}
	if err := waitHealthy(ep.url); err != nil {
		_ = ep.close()
		return nil, nil, rec, err
	}
	return ep, eng, rec, nil
}

// deploy boots the workload's deployment on a fresh data directory: the
// bootstrap mine and first checkpoint, the listener, and — for
// follower-read — the follower's bootstrap from the primary, until every
// /healthz answers. The elapsed time is one setup_s sample.
func deploy(s spec, c *corpus, dir string, wrap func(http.Handler) http.Handler) (*deployment, time.Duration, error) {
	runtime.GC() // every set-up starts from the same heap state
	start := time.Now()
	primary, _, _, err := openPrimary(s, c, dir, s.CheckpointBytes, wrap)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{primary: primary, dir: dir}
	if s.Follower {
		fsrv, err := annotadb.Follow(s.options(), annotadb.ServeOptions{}, annotadb.FollowOptions{Primary: primary.url})
		if err != nil {
			_ = d.close()
			return nil, 0, fmt.Errorf("follow: %w", err)
		}
		if d.follower, err = listen(fsrv, wrap); err != nil {
			_ = fsrv.Close(context.Background())
			_ = d.close()
			return nil, 0, err
		}
		if err := waitHealthy(d.follower.url); err != nil {
			_ = d.close()
			return nil, 0, err
		}
	}
	return d, time.Since(start), nil
}

// readServer is the server the workload reads from.
func (d *deployment) readServer() *annotadb.Server {
	if d.follower != nil {
		return d.follower.srv
	}
	return d.primary.srv
}

// target is the endpoint a group's reads (and, for the primary, its
// writes) go to.
func (d *deployment) target(g group) *endpoint {
	if g.Follower {
		return d.follower
	}
	return d.primary
}

func (d *deployment) close() error {
	var errs []error
	if d.follower != nil {
		errs = append(errs, d.follower.close())
		d.follower = nil
	}
	if d.primary != nil {
		errs = append(errs, d.primary.close())
		d.primary = nil
	}
	return errors.Join(errs...)
}

// copyDir copies the regular files under src to dst: a crash image of a
// quiescent fsync=always data directory (every acknowledged record is in
// the copied bytes; nothing unacknowledged is pending). Each copy is
// synced, so its writeback does not stall the fsyncs timed after it.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
