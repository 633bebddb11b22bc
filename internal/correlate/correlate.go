// Package correlate is the correlation-discovery subsystem: top-K anchor
// queries and churn-anomaly detection over the serving layer's immutable
// snapshots.
//
// Anchor discovery answers "which annotations move with this token?": given
// an anchor (an annotation or a data value), it ranks every co-occurring
// annotation by confidence and lift, keeping only candidates that pass a
// chi-square independence test (p ≤ 0.05, following Chanda et al.,
// "Statistically Significant Attribute Association Information") so that
// high-support noise cannot crowd out genuinely associated annotations. All
// counts come from one frozen relation.View generation — the paper's §4.3
// annotation inverted index and frequency table — so a query takes zero
// engine locks. An Index caches the one derived structure a View lacks (the
// data-value inverted index) and is itself cached per snapshot generation by
// Lazy, built on the generation's first query. Because tuples are
// append-only and their data values never change, that build carries the
// previous generation's index forward instead of rescanning: it shares the
// postings outright when no tuples were appended and scans only the
// appended tuples otherwise, so the index, like the rules, is
// maintained by delta rather than re-mined.
//
// Churn-anomaly detection (detector.go) watches the rule-churn event stream
// for per-family spikes against an EWMA baseline and publishes them back
// into the stream as churn_anomaly events, so anomaly history rides the same
// durable, cursor-resumable machinery as rule churn itself.
package correlate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// ErrUnknownAnchor reports an anchor token with no occurrence in the
// queried generation — never interned, or interned but absent from every
// tuple the snapshot can see.
var ErrUnknownAnchor = errors.New("correlate: anchor token has no occurrences in this generation")

// ChiSquareCutoff is the chi-square critical value at one degree of freedom
// for p = 0.05: candidates below it are statistically indistinguishable
// from independence and are filtered out.
const ChiSquareCutoff = 3.841

const (
	// DefaultK is the result cap applied when a query leaves k unset.
	DefaultK = 10
	// MaxK bounds the result cap a query may request.
	MaxK = 1000
	// DefaultMinLift is the lift floor applied when a query leaves
	// min_lift unset: lift > 1 means positive association, so the default
	// keeps exactly the positively associated candidates.
	DefaultMinLift = 1.0
)

// Query is one parsed /correlate request.
type Query struct {
	// Anchor is the anchor token (an annotation or a data value).
	Anchor string
	// K caps the result count (DefaultK when the request left it unset).
	K int
	// MinLift is the lift floor (DefaultMinLift when unset).
	MinLift float64
}

// ParseQuery validates the raw /correlate query parameters. anchor is
// required; k and minLift are the raw strings of the optional parameters
// ("" applies the default).
func ParseQuery(anchor, k, minLift string) (Query, error) {
	q := Query{Anchor: anchor, K: DefaultK, MinLift: DefaultMinLift}
	if anchor == "" {
		return Query{}, errors.New("correlate: anchor is required")
	}
	if k != "" {
		v, err := strconv.Atoi(k)
		if err != nil {
			return Query{}, fmt.Errorf("correlate: bad k %q: %w", k, err)
		}
		if v < 1 || v > MaxK {
			return Query{}, fmt.Errorf("correlate: k %d out of range [1, %d]", v, MaxK)
		}
		q.K = v
	}
	if minLift != "" {
		v, err := strconv.ParseFloat(minLift, 64)
		if err != nil {
			return Query{}, fmt.Errorf("correlate: bad min_lift %q: %w", minLift, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Query{}, fmt.Errorf("correlate: min_lift %v must be a finite non-negative number", v)
		}
		q.MinLift = v
	}
	return q, nil
}

// Result is one ranked candidate annotation.
type Result struct {
	// Token is the candidate annotation's dictionary token; Family its
	// annotation family (the prefix before the first ":").
	Token  string `json:"token"`
	Family string `json:"family"`
	// Count is the anchor∧candidate co-occurrence count; Frequency the
	// candidate's own occurrence count in the generation.
	Count     int `json:"count"`
	Frequency int `json:"frequency"`
	// Confidence is Count / anchor count; Lift is the observed-over-
	// expected co-occurrence ratio (> 1 means positive association).
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
	// ChiSquare and PValue are the independence-test statistics (one
	// degree of freedom) the significance filter cut on.
	ChiSquare float64 `json:"chi_square"`
	PValue    float64 `json:"p_value"`
}

// Answer is the response to one anchor query.
type Answer struct {
	// Anchor echoes the anchor token; AnchorCount is its occurrence count
	// in the generation; N the generation's tuple count.
	Anchor      string `json:"anchor"`
	AnchorCount int    `json:"anchor_count"`
	N           int    `json:"n"`
	// Results are the significance-filtered top-K candidates, ranked by
	// confidence then lift (descending), token ascending on ties.
	Results []Result `json:"results"`
}

// Index is the per-generation correlate index over one frozen View: the
// data-value inverted index the relation itself does not maintain (the
// paper's §4.3 index covers annotations only). Everything else a query
// needs — annotation postings, frequencies, N — is served straight from
// the View. An Index is immutable once built and safe for concurrent
// queries; the posting slices may be shared with the indexes of other
// generations of the same relation, which never write into them.
type Index struct {
	view *relation.View
	n    int
	// dataPostings holds, at each data-value item's ID, the ascending tuple
	// positions containing it, mirroring View.TuplesWith for annotations.
	dataPostings []blocks
	// fullScan records whether the build scanned the whole relation.
	fullScan bool
}

// postingBlock is the block size of a data-value posting list: extending a
// list another index shares copies only its block spine and its last block,
// never the positions in full blocks.
const postingBlock = 256

// blocks is one data value's ascending tuple positions, split into blocks
// of postingBlock positions (the last may be partial). Full blocks are
// immutable and shared by every index carried forward from the one that
// filled them.
type blocks [][]int

// flatten returns the positions as one slice, copying only when they span
// more than one block.
func (b blocks) flatten() []int {
	switch len(b) {
	case 0:
		return nil
	case 1:
		return b[0]
	}
	out := make([]int, 0, (len(b)-1)*postingBlock+len(b[len(b)-1]))
	for _, blk := range b {
		out = append(out, blk...)
	}
	return out
}

// NewIndex builds the index with one O(N) scan over the view.
func NewIndex(view *relation.View) *Index {
	return &Index{
		view:         view,
		n:            view.Len(),
		dataPostings: appendPostings(nil, view, 0),
		fullScan:     true,
	}
}

// carry builds view's index from base, an index over an earlier generation
// of the same relation. Tuples are append-only and their data values never
// change, so base's postings are a prefix of view's: with no tuples
// appended since base they are shared as is (O(1)), otherwise only the
// tuples at [base.N(), view.Len()) are scanned. A nil base, or one that
// cannot be an earlier generation of view's relation (another dictionary,
// a newer version, more tuples), falls back to NewIndex.
func carry(base *Index, view *relation.View) *Index {
	if base == nil || base.view.Dictionary() != view.Dictionary() ||
		base.view.Version() > view.Version() || base.n > view.Len() {
		return NewIndex(view)
	}
	postings := base.dataPostings
	if view.Len() > base.n {
		postings = appendPostings(postings, view, base.n)
	}
	return &Index{view: view, n: view.Len(), dataPostings: postings}
}

// appendPostings returns base extended with the data values of view's
// tuples at positions [from, view.Len()). It never writes into a backing
// array base can reach: the first append to each list copies its block
// spine and caps its last block with a full slice expression, so that
// block is copied too before it grows, and sibling generations that extend
// one base stay independent. The result is sized by the dictionary's
// data-value count, read after view was captured, so every ID view holds
// fits.
func appendPostings(base []blocks, view *relation.View, from int) []blocks {
	out := make([]blocks, view.Dictionary().CountOf(relation.KindData)+1)
	copy(out, base)
	owned := make([]bool, len(out))
	view.EachFrom(from, func(i int, t relation.Tuple) bool {
		for _, it := range t.Data {
			id := it.ID()
			b := out[id]
			if !owned[id] {
				owned[id] = true
				b = append(blocks(nil), b...)
				if n := len(b); n > 0 {
					b[n-1] = b[n-1][:len(b[n-1]):len(b[n-1])]
				}
			}
			if n := len(b); n == 0 || len(b[n-1]) == postingBlock {
				b = append(b, nil)
			}
			b[len(b)-1] = append(b[len(b)-1], i)
			out[id] = b
		}
		return true
	})
	return out
}

// View returns the frozen generation the index was built over.
func (idx *Index) View() *relation.View { return idx.view }

// N returns the tuple count of the indexed generation.
func (idx *Index) N() int { return idx.n }

// FullScan reports whether the index was built by an O(N) scan of the
// whole relation (NewIndex) rather than carried forward from an earlier
// generation's index.
func (idx *Index) FullScan() bool { return idx.fullScan }

// anchorPostings resolves an anchor token to its ascending tuple positions
// in this generation, or ErrUnknownAnchor.
func (idx *Index) anchorPostings(token string) ([]int, error) {
	it, ok := idx.view.Dictionary().Lookup(token)
	if !ok {
		return nil, ErrUnknownAnchor
	}
	var p []int
	if !it.IsData() {
		p = idx.view.TuplesWith(it)
	} else if id := it.ID(); id < len(idx.dataPostings) {
		p = idx.dataPostings[id].flatten()
	}
	if len(p) == 0 {
		return nil, ErrUnknownAnchor
	}
	return p, nil
}

// score computes the association statistics of one candidate against the
// anchor: co co-occurrences, anchor frequency freqA, candidate frequency
// freqC, over n tuples. The chi-square statistic is the standard 2×2
// contingency form N(ad−bc)²/((a+b)(c+d)(a+c)(b+d)); its p-value at one
// degree of freedom is erfc(√(χ²/2)).
func score(co, freqA, freqC, n int) (confidence, lift, chi2, p float64) {
	confidence = float64(co) / float64(freqA)
	lift = float64(co) * float64(n) / (float64(freqA) * float64(freqC))
	a := float64(co)
	b := float64(freqA - co)
	c := float64(freqC - co)
	d := float64(n - freqA - freqC + co)
	denom := (a + b) * (c + d) * (a + c) * (b + d)
	if denom <= 0 {
		// A degenerate margin (anchor or candidate in every tuple, or in
		// none) carries no independence information; treat it as maximally
		// dependent so ubiquity alone never hides a perfect association.
		chi2 = math.Inf(1)
		p = 0
		return
	}
	chi2 = float64(n) * (a*d - b*c) * (a*d - b*c) / denom
	p = math.Erfc(math.Sqrt(chi2 / 2))
	return
}

// rank sorts results by confidence descending, lift descending, token
// ascending, and truncates to k. An empty answer is always nil, whatever
// the caller accumulated into, so answers compare with reflect.DeepEqual.
func rank(results []Result, k int) []Result {
	if len(results) == 0 {
		return nil
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Confidence != results[j].Confidence {
			return results[i].Confidence > results[j].Confidence
		}
		if results[i].Lift != results[j].Lift {
			return results[i].Lift > results[j].Lift
		}
		return results[i].Token < results[j].Token
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// TopK answers an anchor query from this index: candidates are every
// annotation co-occurring with the anchor, scored from the frozen
// frequency and co-occurrence counts, significance-filtered, and ranked.
func (idx *Index) TopK(q Query) (Answer, error) {
	postings, err := idx.anchorPostings(q.Anchor)
	if err != nil {
		return Answer{}, err
	}
	c, err := countAlong(idx.view, postings)
	if err != nil {
		return Answer{}, err
	}
	dict := idx.view.Dictionary()
	results := make([]Result, 0, len(c.seen))
	for _, cand := range c.seen {
		token := dict.Token(cand)
		if token == q.Anchor {
			continue
		}
		results = append(results, scoreCandidate(token, c.of(cand), len(postings), idx.view.Frequency(cand), idx.n, q.MinLift)...)
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: len(postings),
		N:           idx.n,
		Results:     rank(results, q.K),
	}, nil
}

// cooccurrences holds the annotation counts along one anchor's postings in
// dense per-kind slices indexed by Item.ID — raw annotations and derived
// labels have separate ID spaces — plus the candidates in first-seen order.
type cooccurrences struct {
	annot, derived []int
	seen           []itemset.Item
}

// slot returns the counter cell of annotation a.
func (c *cooccurrences) slot(a itemset.Item) *int {
	if a.IsDerived() {
		return &c.derived[a.ID()]
	}
	return &c.annot[a.ID()]
}

// of returns the co-occurrence count of annotation a.
func (c *cooccurrences) of(a itemset.Item) int { return *c.slot(a) }

// countAlong counts every annotation of view's tuples at positions. The
// slices are sized by the dictionary's per-kind counts, read after the
// view was captured, so every ID the view holds fits.
func countAlong(view *relation.View, positions []int) (cooccurrences, error) {
	dict := view.Dictionary()
	c := cooccurrences{
		annot:   make([]int, dict.CountOf(relation.KindAnnotation)+1),
		derived: make([]int, dict.CountOf(relation.KindDerived)+1),
	}
	for _, p := range positions {
		t, err := view.Tuple(p)
		if err != nil {
			return cooccurrences{}, err
		}
		for _, a := range t.Annots {
			n := c.slot(a)
			if *n == 0 {
				c.seen = append(c.seen, a)
			}
			*n++
		}
	}
	return c, nil
}

// scoreCandidate scores one candidate and applies the significance and
// lift filters, returning zero or one results.
func scoreCandidate(token string, co, freqA, freqC, n int, minLift float64) []Result {
	confidence, lift, chi2, p := score(co, freqA, freqC, n)
	if chi2 < ChiSquareCutoff || lift < minLift {
		return nil
	}
	return []Result{{
		Token:      token,
		Family:     familyOf(token),
		Count:      co,
		Frequency:  freqC,
		Confidence: confidence,
		Lift:       lift,
		ChiSquare:  chi2,
		PValue:     p,
	}}
}

// familyOf extracts the annotation family from a token: the prefix before
// the first ":", or the whole token (the stream package's placement rule).
func familyOf(token string) string {
	for i := 0; i < len(token); i++ {
		if token[i] == ':' {
			return token[:i]
		}
	}
	return token
}

// clampBelow returns the prefix of ascending positions strictly below n.
func clampBelow(postings []int, n int) []int {
	i := sort.SearchInts(postings, n)
	return postings[:i]
}

// TopKMerged answers an anchor query across per-shard indexes, merging at
// the generations the indexes were captured at. The sharded store keeps
// every tuple's data values on every shard in identical positions while
// each annotation family lives on exactly one shard, so the merge is
// position-aligned: the anchor's postings resolve on whichever shard knows
// the token, every shard counts its own annotations along those positions,
// and all counts are clamped to the shortest shard's tuple count so the
// statistics describe one consistent prefix.
func TopKMerged(idxs []*Index, q Query) (Answer, error) {
	if len(idxs) == 1 {
		return idxs[0].TopK(q)
	}
	if len(idxs) == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	minN := idxs[0].n
	for _, idx := range idxs[1:] {
		if idx.n < minN {
			minN = idx.n
		}
	}
	var postings []int
	for _, idx := range idxs {
		p, err := idx.anchorPostings(q.Anchor)
		if err != nil {
			continue
		}
		if p = clampBelow(p, minN); len(p) > 0 {
			postings = p
			break
		}
	}
	if len(postings) == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	var results []Result
	for _, idx := range idxs {
		c, err := countAlong(idx.view, postings)
		if err != nil {
			return Answer{}, err
		}
		dict := idx.view.Dictionary()
		for _, cand := range c.seen {
			token := dict.Token(cand)
			if token == q.Anchor {
				continue
			}
			freqC := len(clampBelow(idx.view.TuplesWith(cand), minN))
			results = append(results, scoreCandidate(token, c.of(cand), len(postings), freqC, minN, q.MinLift)...)
		}
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: len(postings),
		N:           minN,
		Results:     rank(results, q.K),
	}, nil
}

// BruteForce answers an anchor query by O(N·M) recomputation — a full scan
// per candidate annotation, using no derived structure. It exists as the
// equivalence oracle for the cached-index path.
func BruteForce(view *relation.View, q Query) (Answer, error) {
	dict := view.Dictionary()
	anchorItem, ok := dict.Lookup(q.Anchor)
	if !ok {
		return Answer{}, ErrUnknownAnchor
	}
	contains := func(t relation.Tuple, it itemset.Item) bool {
		if it.IsData() {
			return t.Data.Contains(it)
		}
		return t.Annots.Contains(it)
	}
	freqA := 0
	view.Each(func(_ int, t relation.Tuple) bool {
		if contains(t, anchorItem) {
			freqA++
		}
		return true
	})
	if freqA == 0 {
		return Answer{}, ErrUnknownAnchor
	}
	n := view.Len()
	var results []Result
	for _, cand := range view.Annotations() {
		token := dict.Token(cand)
		if token == q.Anchor {
			continue
		}
		co, freqC := 0, 0
		view.Each(func(_ int, t relation.Tuple) bool {
			hasCand := t.Annots.Contains(cand)
			if hasCand {
				freqC++
			}
			if hasCand && contains(t, anchorItem) {
				co++
			}
			return true
		})
		if co == 0 {
			continue
		}
		results = append(results, scoreCandidate(token, co, freqA, freqC, n, q.MinLift)...)
	}
	return Answer{
		Anchor:      q.Anchor,
		AnchorCount: freqA,
		N:           n,
		Results:     rank(results, q.K),
	}, nil
}
