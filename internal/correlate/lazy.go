package correlate

import (
	"sync"
	"sync/atomic"

	"annotadb/internal/relation"
)

// Lazy is the per-snapshot correlate index cache: one allocated per
// published generation, filled by the first query against that generation.
// The serving layer swaps in a fresh snapshot (and with it a fresh Lazy) at
// every publish, so an old generation's index needs no invalidation — but
// it is not thrown away either. Each Lazy is created by its predecessor's
// Next and remembers the nearest earlier generation of the same lineage
// whose index was built (or being built) at publish time; the first query
// carries that index forward (see carry), which costs nothing when the
// generation appended no tuples and a scan of only the appended tuples
// otherwise.
type Lazy struct {
	once sync.Once
	idx  *Index
	// started is set when this generation's build begins, so a later
	// publish links to it rather than to an older base.
	started atomic.Bool
	// base is the nearest ancestor whose build had started when this Lazy
	// was published; cleared once this generation's own index is built, so
	// at most one superseded generation stays reachable through it.
	base atomic.Pointer[Lazy]
}

// Next returns the cache for the generation published after l's, inheriting
// l's lineage; a nil l starts a new lineage. It is two atomic loads and an
// allocation: it never waits on a build in progress and takes no lock a
// query can hold, so the writer's publish stays O(1).
func (l *Lazy) Next() *Lazy {
	next := &Lazy{}
	if l == nil {
		return next
	}
	// Load base before started: if l's build starts in between (and may
	// clear base), started is observed true and next links to l itself.
	base := l.base.Load()
	if l.started.Load() {
		base = l
	}
	next.base.Store(base)
	return next
}

// Get returns the generation's index, building it from view on first use —
// carried forward from the lineage's base index when one exists, a full
// scan otherwise. built reports whether this call performed the build, the
// signal the facade's index-build counter wants; Index.FullScan tells the
// two kinds of build apart.
func (l *Lazy) Get(view *relation.View) (idx *Index, built bool) {
	l.once.Do(func() {
		l.started.Store(true)
		var base *Index
		if b := l.base.Load(); b != nil {
			// b's build has started; an empty Do waits for it to finish.
			b.once.Do(func() {})
			base = b.idx
		}
		l.idx = carry(base, view)
		l.base.Store(nil)
		built = true
	})
	return l.idx, built
}
