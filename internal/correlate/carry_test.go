package correlate

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// carryAnnots is the annotation vocabulary of the carried-index property;
// "gen:" tokens are interned as derived labels so both dense counter
// spaces are exercised.
var carryAnnots = []string{"cpu:high", "cpu:low", "mem:high", "io:slow", "net:sat", "plain", "gen:hot", "gen:cold"}

// carryAnchors mixes annotation anchors with data anchors, including data
// values that only appended tuples introduce.
var carryAnchors = []string{"cpu:high", "mem:high", "plain", "gen:hot", "host=h1", "host=h3", "img=i0", "img=i2", "late=l0", "late=l1"}

// carryItem interns an annotation token of carryAnnots.
func carryItem(t *testing.T, dict *relation.Dictionary, token string) itemset.Item {
	t.Helper()
	var it itemset.Item
	var err error
	if token[:4] == "gen:" {
		it, err = dict.InternDerived(token)
	} else {
		it, err = dict.InternAnnotation(token)
	}
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// carryTuple samples one tuple; late tuples may carry data values no seed
// tuple has.
func carryTuple(t *testing.T, rng *rand.Rand, dict *relation.Dictionary, late bool) relation.Tuple {
	t.Helper()
	var items []itemset.Item
	data := []string{fmt.Sprintf("host=h%d", rng.Intn(6)), fmt.Sprintf("img=i%d", rng.Intn(3))}
	if late && rng.Intn(2) == 0 {
		data = append(data, fmt.Sprintf("late=l%d", rng.Intn(2)))
	}
	for _, tok := range data {
		it, err := dict.InternData(tok)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	for _, a := range carryAnnots {
		if rng.Float64() < 0.3 {
			items = append(items, carryItem(t, dict, a))
		}
	}
	return relation.NewTuple(items...)
}

// reintern re-encodes tu from one dictionary into another, keeping every
// data value and the annotations keep accepts.
func reintern(t *testing.T, tu relation.Tuple, from, to *relation.Dictionary, keep func(token string) bool) relation.Tuple {
	t.Helper()
	var items []itemset.Item
	for _, it := range tu.Data {
		ni, err := to.InternData(from.Token(it))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, ni)
	}
	for _, a := range tu.Annots {
		if tok := from.Token(a); keep(tok) {
			items = append(items, carryItem(t, to, tok))
		}
	}
	return relation.NewTuple(items...)
}

// mutate applies one random generation's worth of writes: an attach, a
// detach, or an append of one to three tuples.
func mutate(t *testing.T, rng *rand.Rand, rel *relation.Relation) {
	t.Helper()
	dict := rel.Dictionary()
	switch rng.Intn(3) {
	case 0:
		a := carryItem(t, dict, carryAnnots[rng.Intn(len(carryAnnots))])
		if err := rel.AddAnnotation(rng.Intn(rel.Len()), a); err != nil && !errors.Is(err, relation.ErrDuplicateAnnotation) {
			t.Fatal(err)
		}
	case 1:
		a := carryItem(t, dict, carryAnnots[rng.Intn(len(carryAnnots))])
		if p := rel.TuplesWith(a); len(p) > 0 {
			if err := rel.RemoveAnnotation(p[rng.Intn(len(p))], a); err != nil {
				t.Fatal(err)
			}
		}
	default:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			rel.Append(carryTuple(t, rng, dict, true))
		}
	}
}

// carryRelation seeds a relation of n tuples for the property.
func carryRelation(t *testing.T, rng *rand.Rand, n int) *relation.Relation {
	t.Helper()
	rel := relation.New()
	for i := 0; i < n; i++ {
		rel.Append(carryTuple(t, rng, rel.Dictionary(), false))
	}
	return rel
}

// checkThreeWay asserts the carried index, a fresh NewIndex, and
// BruteForce give reflect.DeepEqual answers on view for every anchor.
func checkThreeWay(t *testing.T, label string, carried *Index, view *relation.View) {
	t.Helper()
	if carried.View() != view || carried.N() != view.Len() {
		t.Fatalf("%s: carried index covers %d tuples of another view, want %d", label, carried.N(), view.Len())
	}
	fresh := NewIndex(view)
	for _, anchor := range carryAnchors {
		for _, minLift := range []float64{0, 1, 1.3} {
			q := Query{Anchor: anchor, K: 20, MinLift: minLift}
			got, gotErr := carried.TopK(q)
			want, wantErr := fresh.TopK(q)
			brute, bruteErr := BruteForce(view, q)
			if !errors.Is(gotErr, wantErr) || !errors.Is(bruteErr, wantErr) {
				t.Fatalf("%s anchor %q: carried err %v, fresh err %v, brute err %v", label, anchor, gotErr, wantErr, bruteErr)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(want, brute) {
				t.Fatalf("%s anchor %q minLift %v:\n carried: %+v\n fresh:   %+v\n brute:   %+v",
					label, anchor, minLift, got, want, brute)
			}
		}
	}
}

// TestCarriedIndexMatchesFreshAndBruteForce is the carried-index property:
// over seeded random sequences of attach, detach, and append generations,
// where only some generations are queried (so builds carry across skipped
// ones), the Lazy-carried index answers exactly like a fresh NewIndex and
// like BruteForce, for annotation and data anchors. Only the lineage's
// first build may scan the whole relation.
func TestCarriedIndexMatchesFreshAndBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := carryRelation(t, rng, 60+rng.Intn(120))
		var lazy *Lazy
		builds, fullScans := 0, 0
		for gen := 0; gen < 40; gen++ {
			if gen > 0 {
				mutate(t, rng, rel)
			}
			view := rel.View()
			lazy = lazy.Next()
			if rng.Intn(3) == 0 {
				continue // an unqueried generation: its successor carries past it
			}
			idx, built := lazy.Get(view)
			if !built {
				t.Fatalf("seed %d gen %d: first Get did not build", seed, gen)
			}
			builds++
			if idx.FullScan() {
				fullScans++
			}
			if again, rebuilt := lazy.Get(view); again != idx || rebuilt {
				t.Fatalf("seed %d gen %d: second Get rebuilt", seed, gen)
			}
			checkThreeWay(t, fmt.Sprintf("seed %d gen %d", seed, gen), idx, view)
		}
		if builds == 0 || fullScans != 1 {
			t.Fatalf("seed %d: %d builds, %d full scans; want exactly one full scan", seed, builds, fullScans)
		}
	}
}

// TestCarriedIndexOutOfOrderFirstQueries: generations g+1 and g+2 are both
// published before either is queried, so both extend the same base g.
// Their first queries arrive out of order — g+2 before g+1 — and then
// concurrently on a second lineage; neither extension may disturb the
// other's postings or the base's (run under -race).
func TestCarriedIndexOutOfOrderFirstQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := carryRelation(t, rng, 150)
	dict := rel.Dictionary()
	baseView := rel.View()
	base := (*Lazy)(nil).Next()
	if _, built := base.Get(baseView); !built {
		t.Fatal("base did not build")
	}
	var views []*relation.View
	var lazies []*Lazy
	lineage := base
	for g := 0; g < 2; g++ {
		rel.Append(carryTuple(t, rng, dict, true), carryTuple(t, rng, dict, true))
		views = append(views, rel.View())
		lineage = lineage.Next()
		lazies = append(lazies, lineage)
	}

	idx2, _ := lazies[1].Get(views[1])
	idx1, _ := lazies[0].Get(views[0])
	if idx1.FullScan() || idx2.FullScan() {
		t.Fatal("sibling generations rescanned instead of extending the base")
	}
	checkThreeWay(t, "g+2 first", idx2, views[1])
	checkThreeWay(t, "g+1 second", idx1, views[0])
	baseIdx, _ := base.Get(baseView)
	checkThreeWay(t, "base after siblings", baseIdx, baseView)

	// The same shape again, but every first query races.
	var sib []*Lazy
	lineage = base
	for g := 0; g < 2; g++ {
		lineage = lineage.Next()
		sib = append(sib, lineage)
	}
	got := make([]*Index, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := 1 - w%2 // odd workers query g+1, even ones g+2
			got[w], _ = sib[g].Get(views[g])
		}(w)
	}
	wg.Wait()
	for w, idx := range got {
		g := 1 - w%2
		if idx != got[w%2] {
			t.Fatalf("worker %d got a different index for one generation", w)
		}
		checkThreeWay(t, fmt.Sprintf("concurrent g+%d", g+1), idx, views[g])
	}
}

// TestCarriedIndexPublishDuringBuild: a publish that lands while the
// previous generation's first query is still building links to that build
// instead of falling back to a full scan.
func TestCarriedIndexPublishDuringBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := carryRelation(t, rng, 400)
	first := (*Lazy)(nil).Next()
	v1 := rel.View()
	done := make(chan *Index)
	go func() {
		idx, _ := first.Get(v1)
		done <- idx
	}()
	rel.Append(carryTuple(t, rng, rel.Dictionary(), true))
	second := first.Next() // may run before, during, or after the build
	v2 := rel.View()
	idx2, _ := second.Get(v2)
	idx1 := <-done
	if !idx1.FullScan() {
		t.Fatal("the lineage's first build did not scan")
	}
	checkThreeWay(t, "first", idx1, v1)
	checkThreeWay(t, "second", idx2, v2)
}

// TestCarriedIndexMergedShards runs the property through TopKMerged: two
// position-aligned shards (data values on both, each annotation family on
// one) with their own carried lineages must answer like BruteForce over an
// unsharded mirror receiving the same writes.
func TestCarriedIndexMergedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mirror := relation.New()
	shards := []*relation.Relation{relation.New(), relation.New()}
	shardOf := func(token string) int {
		if f := familyOf(token); f == "cpu" || f == "io" || f == "gen" {
			return 0
		}
		return 1
	}
	// appendAll routes one mirror tuple's annotations to their shards.
	appendAll := func(tu relation.Tuple) {
		mirror.Append(tu)
		for s, rel := range shards {
			rel.Append(reintern(t, tu, mirror.Dictionary(), rel.Dictionary(), func(tok string) bool { return shardOf(tok) == s }))
		}
	}
	for i := 0; i < 120; i++ {
		appendAll(carryTuple(t, rng, mirror.Dictionary(), false))
	}
	lazies := make([]*Lazy, len(shards))
	for gen := 0; gen < 30; gen++ {
		if gen > 0 {
			switch rng.Intn(3) {
			case 0, 1: // attach or detach on the owning shard and the mirror
				tok := carryAnnots[rng.Intn(len(carryAnnots))]
				rel := shards[shardOf(tok)]
				i := rng.Intn(mirror.Len())
				ma, sa := carryItem(t, mirror.Dictionary(), tok), carryItem(t, rel.Dictionary(), tok)
				if mirror.View().Frequency(ma) > 0 && rng.Intn(2) == 0 {
					i = mirror.TuplesWith(ma)[0]
					if err := mirror.RemoveAnnotation(i, ma); err != nil {
						t.Fatal(err)
					}
					if err := rel.RemoveAnnotation(i, sa); err != nil {
						t.Fatal(err)
					}
				} else if err := mirror.AddAnnotation(i, ma); err == nil {
					if err := rel.AddAnnotation(i, sa); err != nil {
						t.Fatal(err)
					}
				}
			default:
				appendAll(carryTuple(t, rng, mirror.Dictionary(), true))
			}
		}
		idxs := make([]*Index, len(shards))
		for s, rel := range shards {
			lazies[s] = lazies[s].Next()
			idxs[s], _ = lazies[s].Get(rel.View())
			if gen > 0 && idxs[s].FullScan() {
				t.Fatalf("gen %d shard %d: carried lineage rescanned", gen, s)
			}
		}
		mv := mirror.View()
		for _, anchor := range carryAnchors {
			for _, minLift := range []float64{0, 1} {
				q := Query{Anchor: anchor, K: 20, MinLift: minLift}
				got, gotErr := TopKMerged(idxs, q)
				want, wantErr := BruteForce(mv, q)
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("gen %d anchor %q: merged err %v, brute err %v", gen, anchor, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gen %d anchor %q minLift %v:\n merged: %+v\n brute:  %+v", gen, anchor, minLift, got, want)
				}
			}
		}
	}
}

// TestCarryRefusesForeignLineage: a base from another lineage — a follower
// re-bootstrap's fresh relation and dictionary, or a same-dictionary view
// shorter than the base — is never extended; the build falls back to a
// full scan and still answers correctly.
func TestCarryRefusesForeignLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	old := carryRelation(t, rng, 100)
	lineage := (*Lazy)(nil).Next()
	if _, built := lineage.Get(old.View()); !built {
		t.Fatal("old lineage did not build")
	}

	// Re-bootstrap: the same tuples re-interned into a new relation, the
	// first generation of a new core whose Lazy was (wrongly) linked to
	// the old core's.
	fresh := relation.New()
	od := old.Dictionary()
	old.View().Each(func(_ int, tu relation.Tuple) bool {
		fresh.Append(reintern(t, tu, od, fresh.Dictionary(), func(string) bool { return true }))
		return true
	})
	fresh.Append(carryTuple(t, rng, fresh.Dictionary(), true))
	next := lineage.Next()
	idx, _ := next.Get(fresh.View())
	if !idx.FullScan() {
		t.Fatal("a base from another dictionary was carried across a re-bootstrap")
	}
	checkThreeWay(t, "re-bootstrap", idx, fresh.View())

	// A base with more tuples than the view cannot be its prefix.
	shortView := old.View()
	old.Append(carryTuple(t, rng, od, true))
	longer := NewIndex(old.View())
	if shortIdx := carry(longer, shortView); !shortIdx.FullScan() {
		t.Fatal("a longer base was carried onto a shorter view")
	}
	if got := carry(nil, old.View()); !got.FullScan() {
		t.Fatal("carry without a base did not scan")
	}
}
