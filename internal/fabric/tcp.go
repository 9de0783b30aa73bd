package fabric

import (
	"github.com/catfish-db/catfish/internal/sim"
)

// TCPConn is one endpoint of a simulated kernel-TCP connection carrying
// length-delimited messages (the unit the R-tree baselines exchange).
//
// Unlike the RDMA verbs, every message charges the kernel network stack on
// both endpoints: the sender blocks for its kernel CPU share (the syscall
// path), and delivery to the receiving application is gated on the
// receiver's kernel CPU — which is how the TCP baselines burn server CPU in
// the paper's Figure 2 even though the R-tree work itself is unchanged.
type TCPConn struct {
	net    *Network
	local  *Host
	remote *Host
	peer   *TCPConn
	inbox  *sim.Queue[[]byte]
	closed bool
}

// DialTCP establishes a connection between two hosts and returns the two
// endpoints (client side first).
func (n *Network) DialTCP(client, server *Host) (*TCPConn, *TCPConn) {
	c := &TCPConn{net: n, local: client, remote: server, inbox: sim.NewQueue[[]byte](n.e)}
	s := &TCPConn{net: n, local: server, remote: client, inbox: sim.NewQueue[[]byte](n.e)}
	c.peer, s.peer = s, c
	return c, s
}

// Send transmits data to the peer endpoint. The posting process blocks for
// the sender-side kernel CPU demand; wire transfer and receiver-side kernel
// processing proceed asynchronously, after which the message appears in the
// peer's inbox. The caller may reuse data immediately.
func (c *TCPConn) Send(p *sim.Proc, data []byte) {
	n := c.net
	if c.local.cpu != nil {
		c.local.cpu.Run(p, n.kernelDemand(len(data)))
	}
	captured := append([]byte(nil), data...)
	deliver := n.deliver(c.local, c.remote, len(captured), true)
	peer := c.peer
	n.e.After(deliver-n.e.Now(), func() {
		if peer.local.cpu == nil {
			peer.inbox.Push(captured)
			return
		}
		// Receiver-side kernel processing (softirq + copy) gates delivery
		// to the application and competes with request processing.
		peer.local.cpu.Submit(n.kernelDemand(len(captured))).Then(func(struct{}) {
			peer.inbox.Push(captured)
		})
	})
}

// Recv blocks until a message arrives and returns it.
func (c *TCPConn) Recv(p *sim.Proc) []byte {
	return c.inbox.Pop(p)
}
