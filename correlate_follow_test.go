// Follower-side correlation tests: anchor queries answered from replica
// snapshots match the primary once the watermark passes the last write, and
// replication stats expose wall-clock freshness next to the seq watermark.
package annotadb_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"annotadb"
	"annotadb/internal/httpapi"
)

// correlateKeys renders an answer as comparable strings.
func correlateKeys(a annotadb.CorrelateAnswer) []string {
	out := make([]string, 0, len(a.Results)+1)
	out = append(out, fmt.Sprintf("anchor=%s count=%d n=%d", a.Anchor, a.AnchorCount, a.N))
	for _, r := range a.Results {
		out = append(out, fmt.Sprintf("%s fam=%s co=%d freq=%d conf=%.12g lift=%.12g chi2=%.12g p=%.12g",
			r.Token, r.Family, r.Count, r.Frequency, r.Confidence, r.Lift, r.ChiSquare, r.PValue))
	}
	return out
}

// TestFollowerCorrelateMatchesPrimary: after the min_seq barrier admits a
// read, a follower's anchor answers are byte-identical to the primary's,
// and the advertised ReadSeq is the replication watermark.
func TestFollowerCorrelateMatchesPrimary(t *testing.T) {
	primary, _, ts, _ := startPrimary(t)
	defer closeServer(t, primary)
	fol := startFollower(t, ts.URL, annotadb.ServeOptions{BatchWindow: -1})

	// Shift the correlation structure away from the seed: a new annotation
	// co-occurring with Annot_1 on most of its tuples.
	ctx := context.Background()
	var maxSeq uint64
	for i := 0; i < 4; i++ {
		rep, err := primary.AddAnnotations(ctx, []annotadb.AnnotationUpdate{{Tuple: i, Annotation: "Annot_co"}})
		if err != nil {
			t.Fatal(err)
		}
		maxSeq = rep.Seq
	}
	if maxSeq == 0 {
		t.Fatal("no write was acknowledged")
	}
	waitFollowerSeq(t, fol, maxSeq)

	for _, anchor := range []string{"Annot_1", "Annot_5", "Annot_co", "28", "85", "12"} {
		for _, q := range []struct {
			k       int
			minLift float64
		}{{0, 0}, {5, 1.1}} {
			want, _, wantErr := primary.Correlate(anchor, q.k, q.minLift)
			got, rs, gotErr := fol.Correlate(anchor, q.k, q.minLift)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("anchor %q: follower err %v, primary err %v", anchor, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if rs.Seq < maxSeq {
				t.Fatalf("anchor %q: follower ReadSeq %d behind watermark %d", anchor, rs.Seq, maxSeq)
			}
			if !reflect.DeepEqual(correlateKeys(got), correlateKeys(want)) {
				t.Fatalf("anchor %q k=%d minLift=%v diverged:\nfollower %v\nprimary  %v",
					anchor, q.k, q.minLift, correlateKeys(got), correlateKeys(want))
			}
		}
	}
	if _, _, err := fol.Correlate("never-seen", 0, 0); !errors.Is(err, annotadb.ErrUnknownAnchor) {
		t.Fatalf("follower unknown anchor: got %v, want ErrUnknownAnchor", err)
	}

	// The follower built its own index (replica snapshots are its own
	// generations) and repeated queries reuse it.
	if _, _, err := fol.Correlate("Annot_1", 0, 0); err != nil {
		t.Fatal(err)
	}
	cs := fol.CorrelateStats()
	if cs.IndexBuilds == 0 || cs.CacheHits == 0 {
		t.Fatalf("follower correlate stats = %+v, want builds and cache hits", cs)
	}

	// Replication stats pair the seq watermark with wall-clock freshness:
	// a follower that just applied records reports a small non-negative lag.
	rep := fol.Replication()
	if rep == nil {
		t.Fatal("follower reported no replication stats")
	}
	if rep.LagMillis < 0 || rep.LagMillis > 60_000 {
		t.Fatalf("replication lag_ms = %d, want fresh non-negative wall-clock lag", rep.LagMillis)
	}
}

// TestFollowerCorrelateRebootstrapRescans: on one follower core every
// generation after the first query carries its correlate index forward
// (full scans stay at one across an append), and a re-bootstrap onto a
// restarted primary starts a new lineage — its first query scans the new
// core's relation instead of extending the old core's index — while the
// answers keep matching the primary.
func TestFollowerCorrelateRebootstrapRescans(t *testing.T) {
	primary, sh, ts, dir := startPrimary(t)
	fol := startFollower(t, ts.URL, annotadb.ServeOptions{BatchWindow: -1})
	ctx := context.Background()

	match := func(stage string, p *annotadb.Server) {
		t.Helper()
		for _, anchor := range []string{"Annot_1", "28", "85"} {
			want, _, err := p.Correlate(anchor, 0, 0)
			if err != nil {
				t.Fatalf("%s primary anchor %q: %v", stage, anchor, err)
			}
			got, _, err := fol.Correlate(anchor, 0, 0)
			if err != nil {
				t.Fatalf("%s follower anchor %q: %v", stage, anchor, err)
			}
			if !reflect.DeepEqual(correlateKeys(got), correlateKeys(want)) {
				t.Fatalf("%s anchor %q diverged:\nfollower %v\nprimary  %v", stage, anchor, correlateKeys(got), correlateKeys(want))
			}
		}
	}
	match("seed", primary)
	rep, err := primary.AddTuples(ctx, []annotadb.TupleSpec{{Values: []string{"28", "85"}, Annotations: []string{"Annot_1"}}})
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fol, rep.Seq)
	match("after append", primary)
	if cs := fol.CorrelateStats(); cs.FullScans != 1 || cs.IndexBuilds < 2 {
		t.Fatalf("follower correlate stats before restart = %+v, want 1 full scan of >= 2 builds", cs)
	}
	st0 := fol.Replication()

	sh.swap(nil)
	closeServer(t, primary)
	primary2 := openPrimary(t, dir)
	defer closeServer(t, primary2)
	sh.swap(httpapi.New(primary2, context.Background()))
	rep, err = primary2.AddAnnotations(ctx, []annotadb.AnnotationUpdate{{Tuple: 6, Annotation: "Annot_1"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for st := fol.Replication(); st.RunID == st0.RunID || st.Seq < rep.Seq; st = fol.Replication() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never adopted the restarted primary: %+v (was %+v)", st, st0)
		}
		time.Sleep(5 * time.Millisecond)
	}
	match("after re-bootstrap", primary2)
	if cs := fol.CorrelateStats(); cs.FullScans != 2 {
		t.Fatalf("follower correlate stats after re-bootstrap = %+v, want exactly one more full scan", cs)
	}
}
