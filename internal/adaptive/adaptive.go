// Package adaptive implements the client module of the paper's Algorithm 1
// as a reusable state machine, so every Catfish-style client — the R-tree
// client, the KV client, or any future link-based structure (§VI) — runs
// the identical back-off policy.
//
// The server module periodically writes its CPU utilization into a
// per-client mailbox; the client consults the mailbox before each read
// request. When the predicted utilization exceeds the threshold T, the
// client offloads its next n ∈ [0, N) requests, extending the window to
// [(k−1)·N, k·N) across k consecutive busy observations, randomized so the
// client fleet neither stampedes off the server nor returns all at once.
//
// One deliberate deviation from the paper's pseudocode: the busy-streak
// counter r_busy is only re-evaluated when a fresh heartbeat has been
// consumed. Read literally, Algorithm 1's lines 12-17 reset r_busy on
// every request arriving between heartbeats (where U = 0), which would cap
// the window at [0, N) forever, contradicting §IV-A's prose; gating the
// update on heartbeat arrival implements the described behaviour.
package adaptive

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// Config parametrizes the switch.
type Config struct {
	// N is the back-off window unit (paper: 8).
	N int
	// T is the busy threshold on predicted utilization (paper: 0.95).
	T float64
	// Inv is the heartbeat interval agreed with the server (paper: 10 ms).
	Inv time.Duration
	// PredSmoothing > 0 selects an EWMA predictor with coefficient α;
	// zero selects the paper's most-recent-value predictor.
	PredSmoothing float64
	// EnableFetch arms the third method: when the request is not inside an
	// offload window and the predicted server TX (send-engine) utilization
	// exceeds TxT, DecideMethod returns ChooseFetch. With EnableFetch false
	// the switch is bit-for-bit the binary Algorithm 1 policy — the fetch
	// branch consumes no randomness and touches none of the back-off state.
	EnableFetch bool
	// TxT is the busy threshold on predicted TX utilization (default 0.8).
	TxT float64
}

// WithDefaults fills the zero fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.N == 0 {
		c.N = 8
	}
	if c.T == 0 {
		c.T = 0.95
	}
	if c.Inv == 0 {
		c.Inv = 10 * time.Millisecond
	}
	if c.TxT == 0 {
		c.TxT = 0.8
	}
	return c
}

// Choice is a 3-way access-method decision.
type Choice int

// The three access methods, in decision priority order: an open offload
// window always wins (CPU saturation is the paper's primary signal); fetch
// engages only when the CPU side is calm but the server's send engine is
// the predicted bottleneck.
const (
	ChooseFast Choice = iota
	ChooseOffload
	ChooseFetch
)

func (c Choice) String() string {
	switch c {
	case ChooseOffload:
		return "offload"
	case ChooseFetch:
		return "fetch"
	default:
		return "fast"
	}
}

// Switch is the per-client Algorithm 1 state. Not safe for concurrent use.
type Switch struct {
	cfg Config
	rng *rand.Rand

	rbusy int
	roff  int
	t0    time.Duration
	pred  float64

	// predBits mirrors pred (or, without smoothing, the latest consumed
	// heartbeat) as atomic float64 bits so telemetry scrapers can read the
	// prediction without racing DecideMethod.
	predBits atomic.Uint64

	// predTX / predTXBits are the TX-utilization twin of pred/predBits,
	// fed by the heartbeat's TX word.
	predTX     float64
	predTXBits atomic.Uint64

	// HeartbeatsSeen counts consumed heartbeats.
	HeartbeatsSeen uint64
}

// New returns a switch with the given configuration and randomness source.
func New(cfg Config, rng *rand.Rand) *Switch {
	return &Switch{cfg: cfg.WithDefaults(), rng: rng}
}

// DecideMethod chooses how the next read request is served: Algorithm 1's
// binary offload decision, extended to three ways. now is the current
// (virtual or wall-clock) time; readHB returns the mailbox's CPU
// utilization (0 = no heartbeat, per the paper's u_serv ≠ 0 check) and its
// TX-utilization word, and clearHB performs the paper's memset(u_serv, 0).
// With EnableFetch false (or a TX word that never crosses TxT) the decision
// sequence is bit-for-bit the binary baseline. The fetch branch
// is deterministic: it consumes no randomness, so arming it cannot perturb
// the offload windows either.
func (s *Switch) DecideMethod(now time.Duration, readHB func() (cpu, tx float64), clearHB func()) Choice {
	s.consumeHeartbeat(now, readHB, clearHB)
	if s.roff > 0 {
		s.roff--
		return ChooseOffload
	}
	if s.cfg.EnableFetch && s.PredictedTX() > s.cfg.TxT {
		return ChooseFetch
	}
	return ChooseFast
}

// DecideServerSide is the decision path for operations that cannot be
// offloaded — best-first kNN, where every heap pop depends on all previous
// pops, so a client-side traversal would degenerate into one dependent
// chunk read per visited node (see DESIGN.md §5.13). It runs the same
// heartbeat consumption and window bookkeeping as DecideMethod, so the
// switch's view of server load stays current, but it never opens, consumes,
// or returns an offload window: a pinned operation arriving inside an open
// window leaves the window intact for the next search. The only choice left
// is fetch vs fast, by the same deterministic TX test as DecideMethod.
func (s *Switch) DecideServerSide(now time.Duration, readHB func() (cpu, tx float64), clearHB func()) Choice {
	s.consumeHeartbeat(now, readHB, clearHB)
	if s.cfg.EnableFetch && s.PredictedTX() > s.cfg.TxT {
		return ChooseFetch
	}
	return ChooseFast
}

// consumeHeartbeat is Algorithm 1's lines 12-17 (heartbeat-gated, see the
// package comment): consume at most one fresh heartbeat per interval and
// update the predictor and the randomized back-off window.
func (s *Switch) consumeHeartbeat(now time.Duration, readHB func() (cpu, tx float64), clearHB func()) {
	if now-s.t0 > s.cfg.Inv {
		if u, utx := readHB(); u != 0 {
			atomic.AddUint64(&s.HeartbeatsSeen, 1)
			util := s.predict(u)
			s.predictTX(utx)
			clearHB()
			s.t0 = now
			if util > s.cfg.T && s.roff <= s.rbusy*s.cfg.N {
				s.rbusy++
				s.roff = s.rng.Intn(s.cfg.N) + (s.rbusy-1)*s.cfg.N
			} else {
				s.rbusy = 0
			}
		}
	}
}

// predict applies the configured utilization predictor.
func (s *Switch) predict(latest float64) float64 {
	a := s.cfg.PredSmoothing
	if a <= 0 {
		s.predBits.Store(math.Float64bits(latest))
		return latest
	}
	if a > 1 {
		a = 1
	}
	if s.pred == 0 {
		s.pred = latest
	} else {
		s.pred = a*latest + (1-a)*s.pred
	}
	s.predBits.Store(math.Float64bits(s.pred))
	return s.pred
}

// predictTX applies the same predictor to the TX-utilization word.
func (s *Switch) predictTX(latest float64) {
	a := s.cfg.PredSmoothing
	if a <= 0 {
		s.predTXBits.Store(math.Float64bits(latest))
		return
	}
	if a > 1 {
		a = 1
	}
	if s.predTX == 0 {
		s.predTX = latest
	} else {
		s.predTX = a*latest + (1-a)*s.predTX
	}
	s.predTXBits.Store(math.Float64bits(s.predTX))
}

// PredictedUtil returns the utilization prediction used by the most recent
// consumed heartbeat (0 before any heartbeat). Unlike the rest of the
// switch it is safe to call concurrently with DecideMethod, so telemetry gauges
// can sample it live.
func (s *Switch) PredictedUtil() float64 {
	return math.Float64frombits(s.predBits.Load())
}

// PredictedTX returns the TX-utilization prediction from the most recent
// consumed heartbeat (0 before any heartbeat, and always 0 against servers
// whose heartbeats predate the TX word). Safe to call concurrently.
func (s *Switch) PredictedTX() float64 {
	return math.Float64frombits(s.predTXBits.Load())
}

// State exposes the back-off counters for tests and instrumentation.
func (s *Switch) State() (rbusy, roff int) { return s.rbusy, s.roff }
