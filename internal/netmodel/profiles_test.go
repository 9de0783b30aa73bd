package netmodel

import (
	"testing"
	"time"
)

func TestProfileOrdering(t *testing.T) {
	// The three fabrics must be ordered as on the paper's testbed.
	if !(Ethernet1G.BandwidthBps < Ethernet40G.BandwidthBps &&
		Ethernet40G.BandwidthBps < InfiniBand100G.BandwidthBps) {
		t.Error("bandwidth ordering broken")
	}
	if InfiniBand100G.PropagationDelay >= Ethernet1G.PropagationDelay {
		t.Error("IB propagation should undercut 1G Ethernet")
	}
	if !InfiniBand100G.RDMA || Ethernet1G.RDMA || Ethernet40G.RDMA {
		t.Error("RDMA capability flags wrong")
	}
}

func TestKernelCostsOnlyOnTCP(t *testing.T) {
	for _, p := range []Profile{Ethernet1G, Ethernet40G} {
		if p.KernelCPUPerMsg <= 0 || p.KernelLatency <= 0 {
			t.Errorf("%s: kernel costs missing", p.Name)
		}
	}
	if InfiniBand100G.KernelCPUPerMsg != 0 || InfiniBand100G.KernelLatency != 0 {
		t.Error("InfiniBand must not carry kernel costs")
	}
}

func TestCostModelCalibration(t *testing.T) {
	cm := DefaultCostModel()
	// A small-scope search on the 2M tree visits ~5-9 nodes with ~0-1
	// results; its demand must sit in the 35-55µs band that makes 28 cores
	// saturate near the paper's fast-messaging plateau (~400-900 Kops).
	small := cm.SearchDemand(0, 7, 1)
	if small < 35*time.Microsecond || small > 55*time.Microsecond {
		t.Errorf("small search demand = %v, want 35-55µs", small)
	}
	// Client-side per-node work must be far below a server request: idle
	// client CPUs are the resource Catfish harvests.
	if cm.ClientTraversalDemand(1)*10 > small {
		t.Errorf("client per-node work %v too close to server demand %v",
			cm.ClientTraversalDemand(1), small)
	}
	if cm.PollSlice <= 0 {
		t.Error("poll slice must be positive")
	}
	// Inserts cost at least as much as small searches (they also write).
	if cm.InsertDemand(0, 7, 2) <= cm.SearchDemand(0, 7, 0) {
		t.Error("insert demand should exceed a result-free search")
	}
}

func TestDemandZeroWork(t *testing.T) {
	cm := DefaultCostModel()
	if cm.SearchDemand(0, 0, 0) != cm.SearchFixed {
		t.Error("zero-work search demand should be the fixed cost")
	}
	if cm.InsertDemand(0, 0, 0) != cm.InsertFixed {
		t.Error("zero-work insert demand should be the fixed cost")
	}
	if cm.ClientTraversalDemand(0) != 0 {
		t.Error("zero nodes should cost nothing on the client")
	}
}
