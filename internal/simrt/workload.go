package simrt

// Computation-message traffic for the paper's two evaluation
// environments (§5.1): point-to-point communication with uniformly
// distributed destinations, and group communication with four groups
// whose leaders alone talk across groups; plus an asymmetric
// client-server mix. Inter-send times are exponentially distributed.

import (
	"fmt"
	"time"

	"mutablecp/internal/protocol"
)

// Generator drives computation traffic on a cluster.
type Generator interface {
	// Install arms the generator's send events on the cluster.
	Install(c *Cluster)
	// Stop prevents any further sends (in-flight messages still deliver).
	Stop()
	// Name identifies the workload in reports.
	Name() string
}

// PointToPoint sends from every process at Rate messages/second, each to a
// uniformly random other process.
type PointToPoint struct {
	// Rate is the per-process message sending rate (messages per second).
	Rate float64
	// Active, when positive, restricts traffic to the first Active
	// processes (both senders and destinations); the rest stay idle —
	// e.g. dozing hosts in the energy experiments.
	Active int

	stopped bool
}

var _ Generator = (*PointToPoint)(nil)

// Name implements Generator.
func (w *PointToPoint) Name() string { return fmt.Sprintf("p2p(rate=%g)", w.Rate) }

// Stop implements Generator.
func (w *PointToPoint) Stop() { w.stopped = true }

// Install implements Generator.
func (w *PointToPoint) Install(c *Cluster) {
	if w.Rate <= 0 {
		panic("simrt: PointToPoint.Rate must be positive")
	}
	n := c.N()
	if w.Active > 0 {
		if w.Active < 2 || w.Active > n {
			panic("simrt: PointToPoint.Active out of range")
		}
		n = w.Active
	}
	for i := 0; i < n; i++ {
		i := i
		rng := c.Rand(uint64(0x1000 + i))
		var fire func()
		fire = func() {
			if w.stopped {
				return
			}
			dst := rng.Intn(n - 1)
			if dst >= i {
				dst++
			}
			c.SendApp(i, dst, nil)
			c.sim.Schedule(secs(rng.Exp(w.Rate)), fire)
		}
		c.sim.Schedule(secs(rng.Exp(w.Rate)), fire)
	}
}

// Group arranges processes into Groups equal-sized groups. Every process
// sends intra-group traffic at IntraRate to uniformly random members of
// its own group. Group leaders (the lowest pid of each group) additionally
// send inter-group traffic at IntraRate/InterRatio to uniformly random
// other leaders. This matches the paper's Fig. 6 setup, where the
// intragroup rate is 1000× or 10000× the intergroup rate.
type Group struct {
	// Groups is the number of groups. Paper: 4.
	Groups int
	// IntraRate is the per-process intra-group sending rate (msgs/s).
	IntraRate float64
	// InterRatio is how many times slower inter-group traffic is. Paper:
	// 1000 and 10000.
	InterRatio float64

	stopped bool
}

var _ Generator = (*Group)(nil)

// Name implements Generator.
func (w *Group) Name() string {
	return fmt.Sprintf("group(g=%d rate=%g ratio=%g)", w.Groups, w.IntraRate, w.InterRatio)
}

// Stop implements Generator.
func (w *Group) Stop() { w.stopped = true }

// GroupOf returns the group index of process i in a cluster of n processes.
func (w *Group) GroupOf(i, n int) int {
	size := n / w.Groups
	g := i / size
	if g >= w.Groups {
		g = w.Groups - 1
	}
	return g
}

// LeaderOf returns the leader pid of group g in a cluster of n processes.
func (w *Group) LeaderOf(g, n int) protocol.ProcessID {
	size := n / w.Groups
	return g * size
}

// Install implements Generator.
func (w *Group) Install(c *Cluster) {
	if w.Groups <= 1 {
		panic("simrt: Group.Groups must be at least 2")
	}
	if w.IntraRate <= 0 || w.InterRatio <= 0 {
		panic("simrt: Group rates must be positive")
	}
	n := c.N()
	if n%w.Groups != 0 {
		panic("simrt: N must be divisible by Groups")
	}
	size := n / w.Groups
	for i := 0; i < n; i++ {
		i := i
		g := w.GroupOf(i, n)
		lo := g * size
		rng := c.Rand(uint64(0x2000 + i))
		var intra func()
		intra = func() {
			if w.stopped {
				return
			}
			dst := lo + rng.Intn(size-1)
			if dst >= i {
				dst++
			}
			c.SendApp(i, dst, nil)
			c.sim.Schedule(secs(rng.Exp(w.IntraRate)), intra)
		}
		c.sim.Schedule(secs(rng.Exp(w.IntraRate)), intra)

		if i != w.LeaderOf(g, n) {
			continue
		}
		interRate := w.IntraRate / w.InterRatio
		irng := c.Rand(uint64(0x3000 + i))
		var inter func()
		inter = func() {
			if w.stopped {
				return
			}
			og := irng.Intn(w.Groups - 1)
			if og >= g {
				og++
			}
			c.SendApp(i, w.LeaderOf(og, n), nil)
			c.sim.Schedule(secs(irng.Exp(interRate)), inter)
		}
		c.sim.Schedule(secs(irng.Exp(interRate)), inter)
	}
}

// ClientServer models the asymmetric traffic common on mobile systems: a
// few server processes (the lowest pids) receive requests from every
// client and answer each one. Dependencies therefore concentrate on the
// servers — a checkpoint initiation at a client touches mostly servers,
// while one at a server can touch everyone.
type ClientServer struct {
	// Servers is the number of server processes (pids 0..Servers-1).
	Servers int
	// Rate is the per-client request rate (msgs/s).
	Rate float64

	stopped bool
}

var _ Generator = (*ClientServer)(nil)

// Name implements Generator.
func (w *ClientServer) Name() string {
	return fmt.Sprintf("client-server(servers=%d rate=%g)", w.Servers, w.Rate)
}

// Stop implements Generator.
func (w *ClientServer) Stop() { w.stopped = true }

// Install implements Generator.
func (w *ClientServer) Install(c *Cluster) {
	if w.Servers < 1 || w.Servers >= c.N() {
		panic("simrt: ClientServer.Servers out of range")
	}
	if w.Rate <= 0 {
		panic("simrt: ClientServer.Rate must be positive")
	}
	n := c.N()
	// Servers reply to every request.
	c.OnDeliver = chainDeliver(c.OnDeliver, func(to, from protocol.ProcessID, payload []byte) {
		if w.stopped || to >= w.Servers || len(payload) == 0 || payload[0] != reqMark {
			return
		}
		c.SendApp(to, from, []byte{respMark})
	})
	for i := w.Servers; i < n; i++ {
		i := i
		rng := c.Rand(uint64(0x4000 + i))
		var fire func()
		fire = func() {
			if w.stopped {
				return
			}
			c.SendApp(i, rng.Intn(w.Servers), []byte{reqMark})
			c.sim.Schedule(secs(rng.Exp(w.Rate)), fire)
		}
		c.sim.Schedule(secs(rng.Exp(w.Rate)), fire)
	}
}

const (
	reqMark  = 0x01
	respMark = 0x02
)

// chainDeliver composes delivery observers.
func chainDeliver(prev, next func(to, from protocol.ProcessID, payload []byte)) func(to, from protocol.ProcessID, payload []byte) {
	if prev == nil {
		return next
	}
	return func(to, from protocol.ProcessID, payload []byte) {
		prev(to, from, payload)
		next(to, from, payload)
	}
}

// secs converts a float seconds value to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
