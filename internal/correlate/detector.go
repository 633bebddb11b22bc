package correlate

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"annotadb/internal/stream"
)

// DetectorOptions tune the churn-anomaly detector. The zero value applies
// the defaults noted per field.
type DetectorOptions struct {
	// Window is the churn-counting period (default 5s): per-family event
	// counts accumulate for one window, are judged against the EWMA
	// baseline at its close, then folded into the baseline.
	Window time.Duration
	// Threshold is the spike multiplier (default 4): a window whose count
	// exceeds Threshold × baseline is anomalous.
	Threshold float64
	// MinEvents is the absolute floor (default 4): windows below it never
	// alert, however small the baseline, so a quiet family's first
	// trickle of churn is not a spike.
	MinEvents uint64
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.3).
	Alpha float64
	// Shard is the broker shard slot anomaly events are published on
	// (0 unsharded; sharded brokers take them on slot 0 with seq 0 so
	// the seq vector is never perturbed).
	Shard int
	// MaxRelated caps the co-churn list carried by an anomaly (default 8).
	MaxRelated int
}

func (o DetectorOptions) withDefaults() DetectorOptions {
	if o.Window <= 0 {
		o.Window = 5 * time.Second
	}
	if o.Threshold <= 0 {
		o.Threshold = 4
	}
	if o.MinEvents == 0 {
		o.MinEvents = 4
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.3
	}
	if o.MaxRelated <= 0 {
		o.MaxRelated = 8
	}
	return o
}

// anomaly is one detected spike, before it becomes a stream event.
type anomaly struct {
	family   string
	count    uint64
	baseline float64
	related  []string
}

// tracker is the pure windowing state of the detector: per-family counts
// for the open window and EWMA baselines across closed windows. It is not
// safe for concurrent use; the detector goroutine owns it.
type tracker struct {
	opts     DetectorOptions
	counts   map[string]uint64
	baseline map[string]float64
}

func newTracker(opts DetectorOptions) *tracker {
	return &tracker{
		opts:     opts,
		counts:   make(map[string]uint64),
		baseline: make(map[string]float64),
	}
}

// observe counts one churn event for a family in the open window.
func (tr *tracker) observe(family string) { tr.counts[family]++ }

// roll closes the window: families spiking above the baseline become
// anomalies, every observed family's baseline absorbs its count, silent
// families' baselines decay toward zero, and the window counts reset.
// A family's first observed window only seeds its baseline — with no
// history there is nothing to deviate from.
func (tr *tracker) roll() []anomaly {
	var out []anomaly
	for fam, n := range tr.counts {
		base, seen := tr.baseline[fam]
		if seen && float64(n) > tr.opts.Threshold*base && n >= tr.opts.MinEvents {
			out = append(out, anomaly{
				family:   fam,
				count:    n,
				baseline: base,
				related:  tr.related(fam),
			})
		}
	}
	for fam, n := range tr.counts {
		if base, seen := tr.baseline[fam]; seen {
			tr.baseline[fam] = tr.opts.Alpha*float64(n) + (1-tr.opts.Alpha)*base
		} else {
			tr.baseline[fam] = float64(n)
		}
	}
	for fam := range tr.baseline {
		if _, churned := tr.counts[fam]; !churned {
			tr.baseline[fam] *= 1 - tr.opts.Alpha
		}
	}
	clear(tr.counts)
	sort.Slice(out, func(i, j int) bool { return out[i].family < out[j].family })
	return out
}

// related ranks the other families that churned in the same window — the
// anomaly's "what else changed" payload — by count descending, name
// ascending, capped at MaxRelated. A lone spike is nil, never an empty
// slice, so events compare identically before and after a durable
// round-trip (the log encoding elides empty lists).
func (tr *tracker) related(spiking string) []string {
	var fams []string
	for fam := range tr.counts {
		if fam != spiking {
			fams = append(fams, fam)
		}
	}
	sort.Slice(fams, func(i, j int) bool {
		if tr.counts[fams[i]] != tr.counts[fams[j]] {
			return tr.counts[fams[i]] > tr.counts[fams[j]]
		}
		return fams[i] < fams[j]
	})
	if len(fams) > tr.opts.MaxRelated {
		fams = fams[:tr.opts.MaxRelated]
	}
	return fams
}

// churnKinds are the event kinds the detector counts: rule churn only —
// never gap frames, and never its own churn_anomaly output, so the
// detector cannot feed back into itself.
var churnKinds = []stream.Kind{
	stream.KindAdded,
	stream.KindPromoted,
	stream.KindDemoted,
	stream.KindRetired,
	stream.KindConfidenceChanged,
}

// Detector subscribes to a broker's rule-churn stream, tracks per-family
// churn rates against an EWMA baseline, and publishes churn_anomaly events
// back into the same broker. Stop it before closing the broker.
type Detector struct {
	broker    *stream.Broker
	opts      DetectorOptions
	seqFn     func() uint64
	cancel    context.CancelFunc
	done      chan struct{}
	anomalies atomic.Uint64
}

// StartDetector subscribes to broker and starts the detection goroutine.
// seqFn supplies the serving generation to stamp on emitted events (nil
// stamps 0, which sharded brokers require so the seq vector is never
// perturbed by a non-shard publisher).
func StartDetector(broker *stream.Broker, opts DetectorOptions, seqFn func() uint64) (*Detector, error) {
	opts = opts.withDefaults()
	if seqFn == nil {
		seqFn = func() uint64 { return 0 }
	}
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := broker.Subscribe(ctx, stream.SubscribeOptions{Kinds: churnKinds})
	if err != nil {
		cancel()
		return nil, err
	}
	d := &Detector{
		broker: broker,
		opts:   opts,
		seqFn:  seqFn,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go d.run(ctx, sub)
	return d, nil
}

func (d *Detector) run(ctx context.Context, sub *stream.Subscription) {
	defer close(d.done)
	tr := newTracker(d.opts)
	ticker := time.NewTicker(d.opts.Window)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events:
			if !ok {
				return
			}
			if ev.Kind != stream.KindGap && ev.Family != "" {
				tr.observe(ev.Family)
			}
		case <-ticker.C:
			for _, a := range tr.roll() {
				ev := stream.Event{
					Kind:         stream.KindChurnAnomaly,
					Family:       a.family,
					WindowMillis: d.opts.Window.Milliseconds(),
					Count:        a.count,
					Baseline:     a.baseline,
					Related:      a.related,
				}
				// Count before publishing, so a subscriber that has seen
				// the event never reads a count that misses it.
				d.anomalies.Add(1)
				if err := d.broker.Publish(d.opts.Shard, d.seqFn(), []stream.Event{ev}); err != nil {
					d.anomalies.Add(^uint64(0))
					return
				}
			}
		}
	}
}

// Anomalies returns the number of churn_anomaly events emitted so far.
func (d *Detector) Anomalies() uint64 { return d.anomalies.Load() }

// Stop terminates the detection goroutine and waits for it to exit. It is
// idempotent and must run before the broker closes.
func (d *Detector) Stop() {
	d.cancel()
	<-d.done
}
