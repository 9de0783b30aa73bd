package proto

import (
	"math/rand"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/adaptive"
	"github.com/catfish-db/catfish/internal/wire"
)

// fakeTransport is a Transport whose clock and heartbeat words the test
// sets directly, isolating Algorithm 1 from the rest of the system. The
// message-moving half is never reached by decide; the one-sided read half
// (fakeReads, offload_test.go) serves a tree from local memory.
type fakeTransport struct {
	now     time.Duration
	charge  time.Duration // clock advance per Charge
	cpu, tx float64
	fakeReads
}

func (f *fakeTransport) Now() time.Duration            { return f.now }
func (f *fakeTransport) Heartbeat() (float64, float64) { return f.cpu, f.tx }
func (f *fakeTransport) ClearHeartbeat()               { f.cpu = 0 }
func (f *fakeTransport) NextID() uint64                { panic("unused") }
func (f *fakeTransport) AckFetch(wire.FetchDesc, int)  { panic("unused") }
func (f *fakeTransport) Exchange(wire.Request) (wire.Response, wire.FetchDesc, bool, error) {
	panic("unused")
}
func (f *fakeTransport) ReadMailbox(int, [][]byte) (bool, error) { panic("unused") }
func (f *fakeTransport) Batch([]byte, []uint64, func(), func([]byte) bool) error {
	panic("unused")
}

// algoOps builds adaptive operations over a fake transport with a 1 ms
// heartbeat interval.
func algoOps(n int, thr, smoothing float64) (Ops[*fakeTransport], *fakeTransport) {
	ft := &fakeTransport{}
	core := NewCore(OpsConfig{
		Adaptive:  true,
		Switch:    adaptive.Config{N: n, T: thr, Inv: time.Millisecond, PredSmoothing: smoothing},
		Rand:      rand.New(rand.NewSource(1)),
		Messaging: MethodFast,
	})
	return Bind(core, ft), ft
}

// beat advances the clock past a heartbeat interval and delivers util.
func (f *fakeTransport) beat(util float64) {
	f.now += 2 * time.Millisecond
	f.cpu = util
}

func TestAlgorithm1StaysFastWhenIdle(t *testing.T) {
	o, ft := algoOps(8, 0.95, 0)
	for i := 0; i < 50; i++ {
		ft.beat(0.30) // below threshold
		if m := o.decide(); m != MethodFast {
			t.Fatalf("step %d: method %v with idle server", i, m)
		}
	}
}

func TestAlgorithm1FirstWindowWithinN(t *testing.T) {
	const n = 8
	o, ft := algoOps(n, 0.95, 0)
	ft.beat(0.99)
	offloads := 0
	for i := 0; i < 3*n; i++ {
		// No further heartbeats: the window must drain and stay fast.
		if o.decide() == MethodOffload {
			offloads++
		}
	}
	if offloads >= n {
		t.Errorf("first back-off window = %d, want < N=%d", offloads, n)
	}
	if rbusy, _ := o.sw.State(); rbusy != 1 {
		t.Errorf("rbusy = %d after one busy heartbeat", rbusy)
	}
}

func TestAlgorithm1BacksOffExponentially(t *testing.T) {
	const n = 8
	o, ft := algoOps(n, 0.95, 0)
	// Keep the server busy across many heartbeat rounds; the offload
	// window must extend to [(k-1)N, kN).
	for round := 1; round <= 5; round++ {
		ft.beat(1.0)
		m := o.decide()
		if round >= 2 && m != MethodOffload {
			t.Errorf("round %d: expected offloading to continue", round)
		}
		rbusy, roff := o.sw.State()
		lo, hi := (rbusy-1)*n, rbusy*n
		if roff < lo-1 || roff >= hi {
			t.Errorf("round %d: roff=%d outside [%d, %d)", round, roff, lo, hi)
		}
		// Drain a few requests between heartbeats (fewer than the
		// window so the busy streak keeps extending).
		for i := 0; i < 3; i++ {
			if _, roff := o.sw.State(); roff > 0 {
				o.decide()
			}
		}
	}
	if rbusy, _ := o.sw.State(); rbusy < 3 {
		t.Errorf("rbusy = %d after 5 busy rounds, want back-off growth", rbusy)
	}
}

func TestAlgorithm1ResetsOnIdleHeartbeat(t *testing.T) {
	o, ft := algoOps(8, 0.95, 0)
	ft.beat(1.0)
	o.decide()
	if rbusy, _ := o.sw.State(); rbusy != 1 {
		t.Fatalf("rbusy = %d", rbusy)
	}
	ft.beat(0.10)
	o.decide()
	if rbusy, _ := o.sw.State(); rbusy != 0 {
		t.Errorf("rbusy = %d after idle heartbeat, want 0", rbusy)
	}
	// The remaining window still drains (the paper lets queued offloads
	// finish).
	_, remaining := o.sw.State()
	for i := 0; i < remaining; i++ {
		if o.decide() != MethodOffload {
			t.Fatalf("offload window cut short at %d of %d", i, remaining)
		}
	}
	if o.decide() != MethodFast {
		t.Error("did not return to fast messaging after window drained")
	}
}

func TestAlgorithm1IgnoresMissingHeartbeat(t *testing.T) {
	// Paper: a missing heartbeat (u_serv == 0) is ignored — the delay may
	// mean the network is saturated, where offloading would make it worse.
	o, ft := algoOps(8, 0.95, 0)
	ft.beat(0) // mailbox still zero: no state change, stay fast
	if m := o.decide(); m != MethodFast {
		t.Errorf("method %v with no heartbeat", m)
	}
	if rbusy, roff := o.sw.State(); rbusy != 0 || roff != 0 {
		t.Errorf("state changed without heartbeat: rbusy=%d roff=%d", rbusy, roff)
	}
}

func TestAlgorithm1ConsumesHeartbeat(t *testing.T) {
	// decide must memset u_serv after reading (the paper's line 9).
	o, ft := algoOps(8, 0.95, 0)
	ft.beat(1.0)
	o.decide()
	if ft.cpu != 0 {
		t.Errorf("u_serv = %v after decide, want 0", ft.cpu)
	}
}

func TestPredSmoothingDampsSpike(t *testing.T) {
	// One spiky heartbeat above T must not trigger offloading when the
	// EWMA is configured and history is calm.
	o, ft := algoOps(8, 0.95, 0.3)
	for i := 0; i < 5; i++ {
		ft.beat(0.2)
		o.decide()
	}
	ft.beat(1.0) // spike
	if m := o.decide(); m != MethodFast {
		t.Errorf("EWMA let a single spike trigger offloading")
	}
}
