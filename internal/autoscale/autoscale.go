// Package autoscale is the telemetry-driven shard autoscaler (DESIGN.md
// §5.12): a control loop scrapes every shard's smoothed heartbeat
// utilization and — when a shard pegs past the scale-up threshold — splits
// the hottest shard through the live-resharding path. Scaling is
// split-only: cells subdivide under load and stay subdivided, so K is
// monotone within a run.
//
// The loop is deliberately split into pure pieces — Scraper (observation),
// Decide (policy), Actuator (actuation) — so the policy is unit-testable
// without sockets. Both deployments are a Scraper and an Actuator: each
// reads its servers' utilization gauges in-process and splits a shard with
// the server core's prepare, dual-write, commit and drain sequence.
// rpcnet.Elastic runs it over TCP (catfish-server -autoscale), and
// cluster.Deployment on the simulated fabric, where the bench's autoscale
// and hotspot ablations tick the controller in virtual time.
package autoscale

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Sample is one shard's scraped utilization observation. Util and TXUtil
// mirror the catfish_server_utilization and catfish_server_tx_utilization
// gauges — the smoothed heartbeat utilizations the admission controller
// arms on, so the autoscaler reacts to exactly the signal that makes
// servers shed.
type Sample struct {
	Shard  int
	Util   float64
	TXUtil float64
	Err    error // scrape failure; Util/TXUtil are meaningless when set
}

// Peak is the sample's binding utilization: the larger of CPU and TX.
func (s Sample) Peak() float64 { return math.Max(s.Util, s.TXUtil) }

// Scraper observes the current utilization of every shard, in shard order.
type Scraper interface {
	Scrape() ([]Sample, error)
}

// PolicyConfig tunes the scaling policy.
type PolicyConfig struct {
	// ScaleUpUtil is the peak (CPU or TX) utilization past which the
	// hottest shard is split (default 0.8) — the same order as the
	// server's admission threshold, so the autoscaler relieves pressure
	// before sustained shedding sets in.
	ScaleUpUtil float64
	// MaxK caps the shard count (default 8); at the cap the controller
	// observes but never splits.
	MaxK int
	// Cooldown is the minimum time between splits (default 0 = every
	// tick may split). A split shifts load gradually — routers adopt the
	// map on their next heartbeat — so back-to-back splits on stale
	// utilization overshoot without a cooldown.
	Cooldown time.Duration
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.ScaleUpUtil <= 0 {
		c.ScaleUpUtil = 0.8
	}
	if c.MaxK <= 0 {
		c.MaxK = 8
	}
	return c
}

// Decision is one tick's policy output.
type Decision struct {
	// Split is the index of the shard to split, or -1 to hold.
	Split int
	// Peak is the binding utilization of the hottest shard.
	Peak float64
}

// Decide computes the scaling decision for one scrape sweep. Errored
// samples are treated as utilization-unknown and never nominated for a
// split (splitting a shard we cannot observe is how feedback loops run
// away).
func Decide(cfg PolicyConfig, samples []Sample) Decision {
	cfg = cfg.withDefaults()
	d := Decision{Split: -1}
	k := len(samples)
	if k == 0 {
		return d
	}
	hot := -1
	for i, s := range samples {
		if s.Err != nil {
			continue
		}
		if p := s.Peak(); p > d.Peak {
			d.Peak = p
			hot = i
		}
	}
	if hot >= 0 && d.Peak >= cfg.ScaleUpUtil && k < cfg.MaxK {
		d.Split = hot
	}
	return d
}

// Actuator carries out a split decision: subdivide shard s via the live
// resharding path, returning the new shard count.
type Actuator interface {
	Split(s int) (int, error)
}

// Stats counts the controller's activity (atomic; safe to read from any
// goroutine while the loop runs).
type Stats struct {
	Ticks      uint64
	Splits     uint64
	ScrapeErrs uint64
	SplitErrs  uint64
}

// Controller is the control loop: scrape → decide → actuate, with a split
// cooldown. Tick is the testable single step; Run drives it on a timer.
type Controller struct {
	cfg PolicyConfig
	scr Scraper
	act Actuator

	lastSplit time.Time

	ticks, splits, scrapeErrs, splitErrs atomic.Uint64
}

// NewController wires a scraper and an actuator under a policy.
func NewController(scr Scraper, act Actuator, cfg PolicyConfig) *Controller {
	return &Controller{cfg: cfg.withDefaults(), scr: scr, act: act}
}

// Stats snapshots the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Ticks:      c.ticks.Load(),
		Splits:     c.splits.Load(),
		ScrapeErrs: c.scrapeErrs.Load(),
		SplitErrs:  c.splitErrs.Load(),
	}
}

// Tick runs one scrape-decide-actuate step at the given time. The returned
// decision reflects the policy before cooldown gating; the error reports a
// scrape or split failure (the loop keeps running through both).
func (c *Controller) Tick(now time.Time) (Decision, error) {
	c.ticks.Add(1)
	samples, err := c.scr.Scrape()
	if err != nil {
		c.scrapeErrs.Add(1)
		return Decision{Split: -1}, err
	}
	d := Decide(c.cfg, samples)
	if d.Split < 0 {
		return d, nil
	}
	if c.cfg.Cooldown > 0 && !c.lastSplit.IsZero() && now.Sub(c.lastSplit) < c.cfg.Cooldown {
		return d, nil
	}
	if _, err := c.act.Split(d.Split); err != nil {
		c.splitErrs.Add(1)
		return d, fmt.Errorf("autoscale: split shard %d: %w", d.Split, err)
	}
	c.lastSplit = now
	c.splits.Add(1)
	return d, nil
}

// Run ticks the controller every interval until stop closes. Scrape and
// split errors do not stop the loop — an autoscaler that dies on one bad
// scrape is worse than no autoscaler.
func (c *Controller) Run(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			_, _ = c.Tick(now)
		}
	}
}
