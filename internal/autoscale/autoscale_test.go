package autoscale

import (
	"errors"
	"testing"
	"time"
)

func TestDecide(t *testing.T) {
	cfg := PolicyConfig{ScaleUpUtil: 0.8, MaxK: 4}

	// Cool deployment: hold.
	d := Decide(cfg, []Sample{{Shard: 0, Util: 0.3}, {Shard: 1, Util: 0.2}})
	if d.Split != -1 {
		t.Fatalf("cool: %+v, want hold", d)
	}

	// One pegged shard: split it.
	d = Decide(cfg, []Sample{{Shard: 0, Util: 0.95}, {Shard: 1, Util: 0.4}})
	if d.Split != 0 || d.Peak != 0.95 {
		t.Fatalf("hot: %+v, want split 0 at peak 0.95", d)
	}

	// TX saturation alone nominates a split (the fetch-path bottleneck).
	d = Decide(cfg, []Sample{{Shard: 0, Util: 0.1, TXUtil: 0.9}, {Shard: 1, Util: 0.2}})
	if d.Split != 0 || d.Peak != 0.9 {
		t.Fatalf("tx-hot: %+v, want split 0 at peak 0.9", d)
	}

	// At MaxK the controller observes but never splits.
	hot4 := []Sample{{Util: 0.9}, {Util: 0.9}, {Util: 0.9}, {Util: 0.9}}
	for i := range hot4 {
		hot4[i].Shard = i
	}
	d = Decide(cfg, hot4)
	if d.Split != -1 {
		t.Fatalf("at cap: %+v, want hold", d)
	}

	// Errored samples are never nominated.
	d = Decide(cfg, []Sample{{Shard: 0, Err: errors.New("down")}, {Shard: 1, Util: 0.85}})
	if d.Split != 1 {
		t.Fatalf("errored sample nominated: %+v", d)
	}

}

// fakeActuator records split requests.
type fakeActuator struct {
	calls []int
	k     int
	err   error
}

func (f *fakeActuator) Split(s int) (int, error) {
	if f.err != nil {
		return f.k, f.err
	}
	f.calls = append(f.calls, s)
	f.k++
	return f.k, nil
}

// fixedScraper replays a scripted sequence of sweeps.
type fixedScraper struct {
	sweeps [][]Sample
	i      int
}

func (f *fixedScraper) Scrape() ([]Sample, error) {
	s := f.sweeps[f.i]
	if f.i < len(f.sweeps)-1 {
		f.i++
	}
	return s, nil
}

func TestControllerCooldown(t *testing.T) {
	hot := []Sample{{Shard: 0, Util: 0.95}, {Shard: 1, Util: 0.2}}
	act := &fakeActuator{k: 2}
	c := NewController(&fixedScraper{sweeps: [][]Sample{hot}}, act,
		PolicyConfig{ScaleUpUtil: 0.8, MaxK: 8, Cooldown: 100 * time.Millisecond})

	t0 := time.Unix(1000, 0)
	if _, err := c.Tick(t0); err != nil {
		t.Fatal(err)
	}
	// Inside the cooldown: decision still reports the split, but no
	// actuation happens.
	d, err := c.Tick(t0.Add(10 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if d.Split != 0 {
		t.Fatalf("decision lost the split: %+v", d)
	}
	if len(act.calls) != 1 {
		t.Fatalf("split actuated inside cooldown: %v", act.calls)
	}
	// Past the cooldown the next hot tick splits again.
	if _, err := c.Tick(t0.Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(act.calls) != 2 {
		t.Fatalf("cooldown never expired: %v", act.calls)
	}
	if got := c.Stats().Splits; got != 2 {
		t.Fatalf("stats splits = %d, want 2", got)
	}
}
