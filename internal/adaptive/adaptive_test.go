package adaptive

import (
	"math/rand"
	"testing"
	"time"
)

// harness drives a Switch against a scripted heartbeat mailbox.
type harness struct {
	sw  *Switch
	now time.Duration
	hb  float64
}

func newHarness(cfg Config) *harness {
	return &harness{sw: New(cfg, rand.New(rand.NewSource(1)))}
}

func (h *harness) tick(d time.Duration) { h.now += d }

func (h *harness) decide() bool {
	return h.sw.DecideMethod(h.now, func() (float64, float64) { return h.hb, 0 }, func() { h.hb = 0 }) == ChooseOffload
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.N != 8 || cfg.T != 0.95 || cfg.Inv != 10*time.Millisecond {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestIdleNeverOffloads(t *testing.T) {
	h := newHarness(Config{Inv: time.Millisecond})
	for i := 0; i < 100; i++ {
		h.tick(2 * time.Millisecond)
		h.hb = 0.5
		if h.decide() {
			t.Fatalf("step %d: offloaded with 50%% utilization", i)
		}
	}
}

func TestWindowGrowthUnderSustainedLoad(t *testing.T) {
	h := newHarness(Config{N: 8, Inv: time.Millisecond})
	maxRoff := 0
	for round := 0; round < 10; round++ {
		h.tick(2 * time.Millisecond)
		h.hb = 1.0
		h.decide()
		_, roff := h.sw.State()
		if roff > maxRoff {
			maxRoff = roff
		}
		// Drain only part of the window so the streak keeps extending.
		for i := 0; i < 3; i++ {
			h.decide()
		}
	}
	if maxRoff < 8 {
		t.Errorf("max roff = %d, want window beyond [0, N)", maxRoff)
	}
	if h.sw.HeartbeatsSeen != 10 {
		t.Errorf("heartbeats seen = %d", h.sw.HeartbeatsSeen)
	}
}

func TestHeartbeatGateRespectsInv(t *testing.T) {
	h := newHarness(Config{Inv: 10 * time.Millisecond})
	h.tick(time.Millisecond) // before the first interval elapses
	h.hb = 1.0
	h.decide()
	if h.hb == 0 {
		t.Error("heartbeat consumed before Inv elapsed")
	}
	h.tick(10 * time.Millisecond)
	h.decide()
	if h.hb != 0 {
		t.Error("heartbeat not consumed after Inv elapsed")
	}
}

func TestEWMAPredictor(t *testing.T) {
	sw := New(Config{PredSmoothing: 0.5}, rand.New(rand.NewSource(2)))
	if got := sw.predict(1.0); got != 1.0 {
		t.Errorf("seed = %v", got)
	}
	if got := sw.predict(0.0); got != 0.5 {
		t.Errorf("second = %v", got)
	}
	if got := sw.predict(1.0); got != 0.75 {
		t.Errorf("third = %v", got)
	}
	clamped := New(Config{PredSmoothing: 9}, rand.New(rand.NewSource(3)))
	clamped.predict(0.3)
	if got := clamped.predict(0.9); got != 0.9 {
		t.Errorf("clamped = %v, want raw latest", got)
	}
	raw := New(Config{}, rand.New(rand.NewSource(4)))
	if got := raw.predict(0.42); got != 0.42 {
		t.Errorf("paper predictor = %v", got)
	}
}

func TestEWMADampsSpike(t *testing.T) {
	h := newHarness(Config{Inv: time.Millisecond, PredSmoothing: 0.3, T: 0.95})
	for i := 0; i < 5; i++ {
		h.tick(2 * time.Millisecond)
		h.hb = 0.2
		h.decide()
	}
	h.tick(2 * time.Millisecond)
	h.hb = 1.0 // one spike: EWMA stays well under T
	if h.decide() {
		t.Error("single spike triggered offloading through the EWMA")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []bool {
		h := &harness{sw: New(Config{N: 8, Inv: time.Millisecond}, rand.New(rand.NewSource(7)))}
		var out []bool
		for i := 0; i < 200; i++ {
			h.tick(time.Millisecond)
			if i%3 == 0 {
				h.hb = 1.0
			}
			out = append(out, h.decide())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at step %d", i)
		}
	}
}
