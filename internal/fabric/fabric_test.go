package fabric

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/catfish-db/catfish/internal/netmodel"
	"github.com/catfish-db/catfish/internal/region"
	"github.com/catfish-db/catfish/internal/sim"
)

// testNet builds an IB network with two hosts on a fresh engine.
func testNet(t testing.TB) (*sim.Engine, *Network, *Host, *Host) {
	t.Helper()
	e := sim.New(1)
	n := NewNetwork(e, netmodel.InfiniBand100G)
	a := n.NewHost("client", sim.NewCPU(e, 4))
	b := n.NewHost("server", sim.NewCPU(e, 28))
	return e, n, a, b
}

func TestRDMAWriteDeliversBytes(t *testing.T) {
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(1024)
	qa, _ := n.ConnectQP(a, b, 0)
	var wrote time.Duration
	e.Spawn("writer", func(p *sim.Proc) {
		if err := qa.Write(p, mem, 100, []byte("hello"), WriteOpts{}); err != nil {
			t.Error(err)
		}
		wrote = p.Now()
		// Data must not be visible instantly.
		if bytes.Contains(mem.Bytes(), []byte("hello")) {
			t.Error("write visible before delivery")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wrote != 0 {
		t.Errorf("posting blocked until %v", wrote)
	}
	if string(mem.Bytes()[100:105]) != "hello" {
		t.Error("payload not delivered")
	}
}

func TestRDMAWriteImmWakesResponder(t *testing.T) {
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(256)
	qa, qb := n.ConnectQP(a, b, 0)
	var gotImm uint64
	var wakeAt time.Duration
	e.Spawn("server", func(p *sim.Proc) {
		c := qb.CQ().Pop(p)
		if c.Op != OpWriteImm {
			t.Errorf("op = %v", c.Op)
		}
		gotImm = c.Imm
		wakeAt = p.Now()
	})
	e.Spawn("client", func(p *sim.Proc) {
		if err := qa.Write(p, mem, 0, []byte("msg"), WriteOpts{Imm: 42, Notify: true}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotImm != 42 {
		t.Errorf("imm = %d", gotImm)
	}
	// One-way small-message latency on IB should be a few microseconds.
	if wakeAt < time.Microsecond || wakeAt > 10*time.Microsecond {
		t.Errorf("one-way latency = %v, want ~2µs", wakeAt)
	}
}

func TestRDMAWriteSignaled(t *testing.T) {
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(64)
	qa, _ := n.ConnectQP(a, b, 0)
	var done bool
	e.Spawn("client", func(p *sim.Proc) {
		if err := qa.Write(p, mem, 0, []byte("x"), WriteOpts{Signaled: true, Tag: 7}); err != nil {
			t.Error(err)
		}
		c := qa.CQ().Pop(p)
		if c.Op != OpWriteDone || c.Tag != 7 {
			t.Errorf("completion = %+v", c)
		}
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("no local completion")
	}
}

func TestRDMAWriteValidation(t *testing.T) {
	e, n, a, b := testNet(t)
	memB := b.RegisterMemory(64)
	memA := a.RegisterMemory(64)
	qa, _ := n.ConnectQP(a, b, 0)
	e.Spawn("client", func(p *sim.Proc) {
		if err := qa.Write(p, memA, 0, []byte("x"), WriteOpts{}); !errors.Is(err, ErrWrongHost) {
			t.Errorf("wrong-host err = %v", err)
		}
		if err := qa.Write(p, memB, 60, []byte("xxxxx"), WriteOpts{}); !errors.Is(err, ErrBounds) {
			t.Errorf("bounds err = %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAReadRoundTrip(t *testing.T) {
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(4096)
	copy(mem.Bytes()[512:], "remote-data")
	qa, _ := n.ConnectQP(a, b, 0)
	var rtt time.Duration
	e.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		data, err := qa.ReadSync(p, mem, 512, 11)
		if err != nil {
			t.Error(err)
			return
		}
		rtt = p.Now() - start
		if string(data) != "remote-data" {
			t.Errorf("data = %q", data)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Read needs a full round trip: more than a write's one-way, under 20µs.
	if rtt < 2*time.Microsecond || rtt > 20*time.Microsecond {
		t.Errorf("read RTT = %v", rtt)
	}
}

func TestRDMAReadSeesWriteOrdering(t *testing.T) {
	// A read posted after a local write completes at the remote must
	// observe the written data (the snapshot happens at the remote NIC).
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(64)
	qa, _ := n.ConnectQP(a, b, 0)
	e.Spawn("client", func(p *sim.Proc) {
		if err := qa.Write(p, mem, 0, []byte("v1"), WriteOpts{Signaled: true}); err != nil {
			t.Error(err)
		}
		c := qa.CQ().Pop(p)
		if c.Op != OpWriteDone {
			t.Fatalf("unexpected completion %+v", c)
		}
		data, err := qa.ReadSync(p, mem, 0, 2)
		if err != nil {
			t.Error(err)
		}
		if string(data) != "v1" {
			t.Errorf("read %q after write completion", data)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAReadRegionChunk(t *testing.T) {
	e, n, a, b := testNet(t)
	reg, err := region.New(8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChunk(3, []byte("chunk3")); err != nil {
		t.Fatal(err)
	}
	rm := b.RegisterRegion(reg)
	qa, _ := n.ConnectQP(a, b, 0)
	e.Spawn("client", func(p *sim.Proc) {
		raw, err := qa.ReadSync(p, rm, rm.ChunkOffset(3), reg.ChunkSize())
		if err != nil {
			t.Error(err)
			return
		}
		payload, _, err := region.DecodeChunk(raw, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if string(payload[:6]) != "chunk3" {
			t.Errorf("payload = %q", payload[:6])
		}
		// Unaligned read is rejected.
		if _, err := qa.ReadSync(p, rm, 13, 100); err == nil {
			t.Error("unaligned region read should fail")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAReadTornChunkRetry(t *testing.T) {
	// A read landing inside a staged write window observes mixed versions;
	// the client retries and then succeeds — the paper's §III-B protocol.
	e, n, a, b := testNet(t)
	reg, err := region.New(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChunk(0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	rm := b.RegisterRegion(reg)
	qa, _ := n.ConnectQP(a, b, 0)
	retries := 0
	e.Spawn("server-writer", func(p *sim.Proc) {
		w, err := reg.BeginWrite(0, []byte("new"))
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Microsecond) // hold the torn window open
		w.Finish()
	})
	e.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // land inside the window
		for {
			raw, err := qa.ReadSync(p, rm, 0, reg.ChunkSize())
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := region.DecodeChunk(raw, nil); err != nil {
				if !errors.Is(err, region.ErrTornRead) {
					t.Error(err)
					return
				}
				retries++
				p.Sleep(10 * time.Microsecond)
				continue
			}
			return
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Error("expected at least one torn-read retry")
	}
}

func TestSQDepthBoundsOutstanding(t *testing.T) {
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(8192)
	qa, _ := n.ConnectQP(a, b, 2)
	var postTimes []time.Duration
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := qa.Write(p, mem, i*16, bytes.Repeat([]byte{1}, 16), WriteOpts{}); err != nil {
				t.Error(err)
			}
			postTimes = append(postTimes, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if postTimes[1] != 0 {
		t.Errorf("second post should not block, got %v", postTimes[1])
	}
	if postTimes[2] == 0 {
		t.Error("third post should block on SQ depth 2")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two 1 MB writes from one host serialize on its TX pipe: the second
	// delivery is ~80µs after the first on 100 Gbps.
	e, n, a, b := testNet(t)
	mem := b.RegisterMemory(2 << 20)
	qa, qb := n.ConnectQP(a, b, 0)
	_ = qb
	const mb = 1 << 20
	var deliveries []time.Duration
	e.Spawn("watcher", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			c := qa.CQ().Pop(p)
			if c.Op != OpWriteDone {
				t.Errorf("op %v", c.Op)
			}
			deliveries = append(deliveries, p.Now())
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		buf := make([]byte, mb)
		for i := 0; i < 2; i++ {
			if err := qa.Write(p, mem, i*mb, buf, WriteOpts{Signaled: true}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gap := deliveries[1] - deliveries[0]
	mbF := float64(mb)
	txTime := time.Duration(mbF * 8 / 100e9 * float64(time.Second)) // ~84µs
	if gap < txTime*9/10 || gap > txTime*11/10 {
		t.Errorf("serialization gap = %v, want ~%v", gap, txTime)
	}
	if b.RXBytes() < 2*mb {
		t.Errorf("server RX bytes = %d", b.RXBytes())
	}
}

func TestTCPRoundTripLatencyAndKernelCPU(t *testing.T) {
	e := sim.New(1)
	n := NewNetwork(e, netmodel.Ethernet1G)
	clientCPU := sim.NewCPU(e, 4)
	serverCPU := sim.NewCPU(e, 28)
	a := n.NewHost("client", clientCPU)
	b := n.NewHost("server", serverCPU)
	cEnd, sEnd := n.DialTCP(a, b)
	var rtt time.Duration
	e.Spawn("server", func(p *sim.Proc) {
		msg := sEnd.Recv(p)
		sEnd.Send(p, msg)
	})
	e.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		cEnd.Send(p, []byte("ping"))
		resp := cEnd.Recv(p)
		rtt = p.Now() - start
		if string(resp) != "ping" {
			t.Errorf("resp = %q", resp)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Kernel TCP on 1G: tens of microseconds per direction.
	if rtt < 80*time.Microsecond || rtt > 400*time.Microsecond {
		t.Errorf("TCP RTT = %v, want ~100-200µs", rtt)
	}
	if serverCPU.UtilizationTotal() == 0 {
		t.Error("server kernel CPU was never charged")
	}
}

func TestTCPNilCPUSkipsKernelCharge(t *testing.T) {
	e := sim.New(1)
	n := NewNetwork(e, netmodel.Ethernet40G)
	a := n.NewHost("a", nil)
	b := n.NewHost("b", nil)
	cEnd, sEnd := n.DialTCP(a, b)
	var got []byte
	e.Spawn("recv", func(p *sim.Proc) { got = sEnd.Recv(p) })
	e.Spawn("send", func(p *sim.Proc) { cEnd.Send(p, []byte("ok")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestTCPTryRecvAndPending(t *testing.T) {
	e := sim.New(1)
	n := NewNetwork(e, netmodel.Ethernet40G)
	a := n.NewHost("a", nil)
	b := n.NewHost("b", nil)
	cEnd, sEnd := n.DialTCP(a, b)
	e.Spawn("send", func(p *sim.Proc) {
		if _, ok := sEnd.TryRecv(); ok {
			t.Error("TryRecv on empty inbox")
		}
		cEnd.Send(p, []byte("m1"))
		cEnd.Send(p, []byte("m2"))
		p.Sleep(time.Millisecond)
		if sEnd.Pending() != 2 {
			t.Errorf("pending = %d", sEnd.Pending())
		}
		m, ok := sEnd.TryRecv()
		if !ok || string(m) != "m1" {
			t.Errorf("TryRecv = %q, %v", m, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesSanity(t *testing.T) {
	for _, p := range []netmodel.Profile{netmodel.Ethernet1G, netmodel.Ethernet40G, netmodel.InfiniBand100G} {
		if p.BandwidthBps <= 0 || p.Name == "" {
			t.Errorf("profile %+v invalid", p)
		}
		if p.RDMA && p.KernelCPUPerMsg != 0 {
			t.Errorf("RDMA profile %s has kernel costs", p.Name)
		}
		if !p.RDMA && p.KernelCPUPerMsg == 0 {
			t.Errorf("TCP profile %s missing kernel costs", p.Name)
		}
	}
}

func TestCostModelMonotone(t *testing.T) {
	cm := netmodel.DefaultCostModel()
	if cm.SearchDemand(0, 10, 5) <= cm.SearchDemand(0, 5, 5) {
		t.Error("search demand not monotone in nodes")
	}
	if cm.SearchDemand(0, 5, 100) <= cm.SearchDemand(0, 5, 0) {
		t.Error("search demand not monotone in results")
	}
	if cm.InsertDemand(0, 5, 3) <= cm.InsertDemand(0, 5, 0) {
		t.Error("insert demand not monotone in writes")
	}
	if cm.ClientTraversalDemand(10) <= 0 {
		t.Error("client demand must be positive")
	}
}

// RXBytes returns total bytes received (wire overhead included).
func (h *Host) RXBytes() uint64 { return h.rx.Bytes() }

// TryRecv returns a pending message without blocking.
func (c *TCPConn) TryRecv() ([]byte, bool) {
	return c.inbox.TryPop()
}

// Pending returns the number of delivered-but-unread messages.
func (c *TCPConn) Pending() int { return c.inbox.Len() }
