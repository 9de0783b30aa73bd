package rpcnet

import (
	"testing"

	"github.com/catfish-db/catfish/internal/geo"
)

// TestConnectShape pins which handle Connect resolves to: one address with
// no router-only option yields the direct *Client; several addresses, or
// backups or a liveness window on one, yield the scatter-gather *Router; a
// MuxPool changes only the connections underneath, never the shape.
func TestConnectShape(t *testing.T) {
	sharded, _, _, _ := startShardedDeploy(t, 200, 2, 0)
	single, _ := startServer(t, 50, ServerConfig{})
	backup, _ := startServer(t, 50, ServerConfig{})
	pool := NewMuxPool(2)
	t.Cleanup(func() { pool.Close() })
	for _, d := range []struct {
		name  string
		addrs []string
	}{
		{"one", []string{single.Addr().String()}},
		{"several", sharded},
	} {
		backups := make([][]string, len(d.addrs))
		backups[0] = []string{backup.Addr().String()}
		for _, o := range []struct {
			name   string
			opts   []Option
			router bool
		}{
			{"no-option", nil, false},
			{"backups", []Option{WithBackups(backups)}, true},
			{"health-multiple", []Option{WithHealthMultiple(5)}, true},
			{"mux-pool", []Option{WithMuxPool(pool)}, false},
		} {
			t.Run(d.name+"/"+o.name, func(t *testing.T) {
				c, err := Connect(d.addrs, o.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				_, isClient := c.(*Client)
				_, isRouter := c.(*Router)
				wantRouter := o.router || len(d.addrs) > 1
				if isRouter != wantRouter || isClient == wantRouter {
					t.Fatalf("Connect returned %T, want a router: %v", c, wantRouter)
				}
				if _, _, err := c.Search(geo.NewRect(0, 0, 0.5, 0.5)); err != nil {
					t.Fatalf("search through %T: %v", c, err)
				}
			})
		}
	}
}
