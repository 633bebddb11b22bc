package httpapi

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"annotadb"
)

// correlateBody is the decoded /correlate response.
type correlateBody struct {
	Anchor      string                `json:"anchor"`
	AnchorCount int                   `json:"anchor_count"`
	N           int                   `json:"n"`
	K           int                   `json:"k"`
	MinLift     float64               `json:"min_lift"`
	Seq         uint64                `json:"seq"`
	Count       int                   `json:"count"`
	Results     []CorrelateResultJSON `json:"results"`
}

func decodeErrorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return envelope.Error.Code
}

// TestCorrelateEndpoint covers the happy path on the gated fixture: every
// tuple carries the anchor, so the one candidate is perfectly associated —
// confidence 1, lift 1, and a degenerate (zero-margin) chi-square table the
// wire must still serialize as finite JSON.
func TestCorrelateEndpoint(t *testing.T) {
	ts := gatedServer(t, 0)

	resp, err := http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /correlate = %d, want 200", resp.StatusCode)
	}
	var body correlateBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Anchor != "28" || body.AnchorCount != 4 || body.N != 4 {
		t.Fatalf("anchor %q count %d n %d, want 28 / 4 / 4", body.Anchor, body.AnchorCount, body.N)
	}
	if body.K != 10 || body.MinLift != 1 {
		t.Fatalf("defaults k %d min_lift %v, want 10 / 1", body.K, body.MinLift)
	}
	if body.Count != len(body.Results) || body.Results == nil {
		t.Fatalf("count %d vs %d results (nil %v)", body.Count, len(body.Results), body.Results == nil)
	}
	var hit *CorrelateResultJSON
	for i := range body.Results {
		if body.Results[i].Token == "Annot_1" {
			hit = &body.Results[i]
		}
	}
	if hit == nil {
		t.Fatalf("Annot_1 missing from results %+v", body.Results)
	}
	if hit.Count != 4 || hit.Frequency != 4 || hit.Confidence != 1 || hit.Lift != 1 {
		t.Fatalf("Annot_1 = %+v, want count 4 freq 4 confidence 1 lift 1", hit)
	}
	if math.IsInf(hit.ChiSquare, 0) || math.IsNaN(hit.ChiSquare) || hit.ChiSquare < 3.841 {
		t.Fatalf("degenerate chi_square = %v, want finite and beyond the cutoff", hit.ChiSquare)
	}
	if hit.PValue != 0 {
		t.Fatalf("degenerate p_value = %v, want 0", hit.PValue)
	}
}

func TestCorrelateBadRequests(t *testing.T) {
	ts := gatedServer(t, 0)
	for _, q := range []string{
		"",                      // missing anchor
		"anchor=28&k=0",         // k below 1
		"anchor=28&k=ten",       // k not a number
		"anchor=28&min_lift=-1", // negative lift floor
		"anchor=28&min_seq=x",   // malformed barrier
	} {
		resp, err := http.Get(ts.URL + "/correlate?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /correlate?%s = %d, want 400", q, resp.StatusCode)
		}
		if code := decodeErrorCode(t, resp); code != CodeInvalidArgument {
			t.Errorf("GET /correlate?%s error code %q, want %q", q, code, CodeInvalidArgument)
		}
	}
}

func TestCorrelateUnknownAnchor(t *testing.T) {
	ts := gatedServer(t, 0)
	resp, err := http.Get(ts.URL + "/correlate?anchor=never-seen")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown anchor = %d, want 404", resp.StatusCode)
	}
	if code := decodeErrorCode(t, resp); code != CodeNotFound {
		t.Fatalf("unknown anchor error code %q, want %q", code, CodeNotFound)
	}
}

// TestCorrelateSeqBarrierOnPrimary: a min_seq barrier on a primary is an
// accepted no-op — acked writes are always visible there, so even a seq far
// beyond the current one answers immediately (the timeout path only exists
// on followers; annotadb's replica suite covers it).
func TestCorrelateSeqBarrierOnPrimary(t *testing.T) {
	ts := gatedServer(t, 0)
	resp, err := http.Get(ts.URL + "/correlate?anchor=28&min_seq=999999&wait_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary barrier = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/correlate?anchor=28&min_seq=1&wait_ms=-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative wait_ms = %d, want 400", resp.StatusCode)
	}
	if code := decodeErrorCode(t, resp); code != CodeInvalidArgument {
		t.Fatalf("negative wait_ms error code %q, want %q", code, CodeInvalidArgument)
	}
}

// TestReadGateShedsCorrelate: /correlate shares the read-admission gate
// with /recommend and /rules — the second immediate read sheds with 429
// and a fractional Retry-After.
func TestReadGateShedsCorrelate(t *testing.T) {
	ts := gatedServer(t, 5) // burst 1

	resp, err := http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first correlate = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("correlate beyond the cap = %d, want 429", resp.StatusCode)
	}
	hint, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || hint <= 0 || hint > 1 {
		t.Errorf("Retry-After = %q (%v), want fractional seconds in (0, 1]", resp.Header.Get("Retry-After"), err)
	}
	if code := decodeErrorCode(t, resp); code != CodeOverloaded {
		t.Errorf("shed correlate error code %q, want %q", code, CodeOverloaded)
	}
}

// TestStatsCorrelateSection: /stats grows a correlate section once the
// index has been exercised, with cache hits distinguishing reuse from
// rebuilds.
func TestStatsCorrelateSection(t *testing.T) {
	ts := gatedServer(t, 0)

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/correlate?anchor=28")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("correlate %d = %d, want 200", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Correlate *struct {
			IndexBuilds     uint64 `json:"index_builds"`
			CacheHits       uint64 `json:"cache_hits"`
			Anomalies       uint64 `json:"anomalies"`
			DetectorRunning bool   `json:"detector_running"`
		} `json:"correlate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Correlate == nil {
		t.Fatal("/stats missing correlate section after queries")
	}
	if stats.Correlate.IndexBuilds != 1 || stats.Correlate.CacheHits != 1 {
		t.Fatalf("correlate stats = %+v, want 1 build + 1 cache hit", stats.Correlate)
	}
	if stats.Correlate.DetectorRunning {
		t.Fatal("detector reported running without CorrelateOptions.Anomalies")
	}
}

// negativeServer serves a fixture with one significant negative
// association: data value 28 sits on tuples 0-19, Annot_pos on 0-17, and
// Annot_neg on 18-37, so Annot_neg co-occurs with 28 only twice (lift 0.2,
// chi-square 25.6).
func negativeServer(t *testing.T) (*httptest.Server, *annotadb.Server) {
	t.Helper()
	ds := annotadb.NewDataset()
	for i := 0; i < 40; i++ {
		values := []string{"v" + strconv.Itoa(i%3)}
		if i < 20 {
			values = append(values, "28")
		}
		var annots []string
		if i < 18 {
			annots = append(annots, "Annot_pos")
		}
		if i >= 18 && i < 38 {
			annots = append(annots, "Annot_neg")
		}
		if _, err := ds.AddTuple(values, annots); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := annotadb.NewEngine(ds, annotadb.Options{MinSupport: 0.3, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := annotadb.NewServer(eng, annotadb.ServeOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv, context.Background()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ts, srv
}

// getCorrelate decodes one 200 /correlate response.
func getCorrelate(t *testing.T, url string) correlateBody {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	var body correlateBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return body
}

// TestCorrelateExplicitZeroMinLift: min_lift=0 is honored, not replaced by
// the default floor of 1, so significant negatively associated candidates
// come back; leaving it unset keeps them out.
func TestCorrelateExplicitZeroMinLift(t *testing.T) {
	ts, _ := negativeServer(t)
	tokens := func(b correlateBody) map[string]bool {
		out := map[string]bool{}
		for _, r := range b.Results {
			out[r.Token] = true
		}
		return out
	}
	def := getCorrelate(t, ts.URL+"/correlate?anchor=28")
	if got := tokens(def); !got["Annot_pos"] || got["Annot_neg"] || def.MinLift != 1 {
		t.Fatalf("default floor: min_lift %v results %+v, want Annot_pos without Annot_neg", def.MinLift, def.Results)
	}
	zero := getCorrelate(t, ts.URL+"/correlate?anchor=28&min_lift=0")
	if !tokens(zero)["Annot_neg"] || zero.MinLift != 0 {
		t.Fatalf("min_lift=0: min_lift %v results %+v, want Annot_neg included", zero.MinLift, zero.Results)
	}
	for _, r := range zero.Results {
		if r.Token == "Annot_neg" && (r.Count != 2 || r.Lift >= 1 || r.ChiSquare < 3.841) {
			t.Fatalf("Annot_neg = %+v, want count 2, lift < 1, significant", r)
		}
	}
	for _, bad := range []string{"NaN", "Inf", "-Inf"} {
		resp, err := http.Get(ts.URL + "/correlate?anchor=28&min_lift=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("min_lift=%s = %d, want 400", bad, resp.StatusCode)
		}
		if code := decodeErrorCode(t, resp); code != CodeInvalidArgument {
			t.Errorf("min_lift=%s error code %q, want %q", bad, code, CodeInvalidArgument)
		}
	}
}

// TestStatsCorrelateFullScansStayFlat: after the first query's full scan,
// later generations carry the index forward — across an annotation write
// and a tuple append alike — so index_builds grows while full_scans stays
// at one.
func TestStatsCorrelateFullScansStayFlat(t *testing.T) {
	ts, srv := negativeServer(t)
	ctx := context.Background()
	getCorrelate(t, ts.URL+"/correlate?anchor=28")
	if _, err := srv.AddAnnotations(ctx, []annotadb.AnnotationUpdate{{Tuple: 39, Annotation: "Annot_pos"}}); err != nil {
		t.Fatal(err)
	}
	getCorrelate(t, ts.URL+"/correlate?anchor=28")
	if _, err := srv.AddTuples(ctx, []annotadb.TupleSpec{{Values: []string{"28", "late"}, Annotations: []string{"Annot_neg"}}}); err != nil {
		t.Fatal(err)
	}
	if got := getCorrelate(t, ts.URL+"/correlate?anchor=late&min_lift=0"); got.AnchorCount != 1 || got.N != 41 {
		t.Fatalf("appended data anchor: count %d n %d, want 1 / 41", got.AnchorCount, got.N)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Correlate *struct {
			IndexBuilds uint64 `json:"index_builds"`
			FullScans   uint64 `json:"full_scans"`
			CacheHits   uint64 `json:"cache_hits"`
		} `json:"correlate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if c := stats.Correlate; c == nil || c.IndexBuilds != 3 || c.FullScans != 1 || c.CacheHits != 0 {
		t.Fatalf("correlate stats = %+v, want 3 builds, 1 full scan, 0 cache hits", c)
	}
}
