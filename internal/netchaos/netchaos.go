package netchaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"salsa/internal/seeded"
)

// chunkSize is the forwarding granularity: faults are evaluated per
// chunk, so it bounds both the injection resolution and how much of a
// frame a reset can let through.
const chunkSize = 4 << 10

// dripSlices is how many pieces a dripped chunk is delivered in.
const dripSlices = 4

// Proxy is an in-process TCP fault injector: it listens on a loopback
// address, forwards every accepted connection to the target address, and
// injects its Schedule's faults into the byte stream. Point a client at
// Addr() instead of the real server and the network between them turns
// hostile on a replayable schedule.
type Proxy struct {
	ln     net.Listener
	target string
	sched  *Schedule

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// Listen starts a proxy on a fresh loopback port forwarding to target.
// A nil sched means a fault-free (but still proxied) link.
func Listen(target string, sched *Schedule) (*Proxy, error) {
	if sched == nil {
		sched, _ = ParseSchedule(0, "")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		sched:  sched,
		conns:  make(map[net.Conn]struct{}),
		stop:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address — what clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Target returns the address the proxy forwards to.
func (p *Proxy) Target() string { return p.target }

// Seed returns the schedule's seed (print it on failure: the same seed
// and spec replay the same fault sequence).
func (p *Proxy) Seed() uint64 { return p.sched.Seed() }

// Spec returns the schedule's parseable spec string.
func (p *Proxy) Spec() string { return p.sched.Spec() }

// Faults returns injected-fault totals by action name, the shape of the
// salsa_netchaos_faults_total{kind} metric family.
func (p *Proxy) Faults() map[string]int64 { return p.sched.FiredByAction() }

// TotalFaults returns how many faults the proxy has injected.
func (p *Proxy) TotalFaults() int64 { return p.sched.TotalFired() }

// Close stops accepting, severs every proxied connection, and waits for
// the forwarding goroutines to unwind.
func (p *Proxy) Close() error {
	p.once.Do(func() {
		close(p.stop)
		p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	p.wg.Wait()
	return nil
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stop:
		return false
	default:
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go p.handle(client)
	}
}

// jitter returns a duration in [d/2, d] drawn from the coin.
func jitter(d time.Duration, coin uint64) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(coin%uint64(half+1))
}

// sleep waits for d or until the proxy is closing.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stop:
		return false
	}
}

// abort closes a connection RST-style (linger 0) so the peer sees a
// reset rather than a graceful EOF — the mid-frame cut.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	if !p.track(client) {
		client.Close()
		return
	}
	defer p.untrack(client)

	if r, coin := p.sched.pick(SiteAccept); r != nil {
		switch Action(r.Action) {
		case ActionDelay, ActionDrip:
			if !p.sleep(jitter(r.Delay, coin)) {
				client.Close()
				return
			}
		case ActionReset:
			abort(client)
			return
		case ActionBlackhole:
			// Swallow the connection: the TCP handshake succeeded but
			// the target is never dialed and nothing ever answers. The
			// client's read blocks until its own deadline; discard its
			// writes so it does not block on a full window.
			io.Copy(io.Discard, client)
			client.Close()
			return
		}
	}

	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		abort(client)
		return
	}
	if !p.track(server) {
		server.Close()
		client.Close()
		return
	}
	defer p.untrack(server)

	// Either pump tearing down closes both ends exactly once.
	var severOnce sync.Once
	sever := func(rst bool) {
		severOnce.Do(func() {
			if rst {
				abort(client)
				abort(server)
			} else {
				client.Close()
				server.Close()
			}
		})
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.pump(SiteC2S, client, server, sever)
	}()
	p.pump(SiteS2C, server, client, sever)
}

// pump forwards src→dst in chunks, consulting the schedule per chunk.
func (p *Proxy) pump(site Site, src, dst net.Conn, sever func(rst bool)) {
	buf := make([]byte, chunkSize)
	blackholed := false
	for {
		n, err := src.Read(buf)
		if n > 0 && !blackholed {
			r, coin := p.sched.pick(site)
			if r != nil {
				switch Action(r.Action) {
				case ActionDelay:
					if !p.sleep(jitter(r.Delay, coin)) {
						sever(false)
						return
					}
				case ActionReset:
					// Deliver a coin-chosen prefix, then cut both ways:
					// the peer sees a frame truncated mid-payload.
					if k := int(coin % uint64(n+1)); k > 0 {
						dst.Write(buf[:k])
					}
					sever(true)
					return
				case ActionBlackhole:
					// One-way partition from here on: this direction's
					// bytes vanish (we keep reading so the sender is
					// not throttled into noticing), the reverse
					// direction keeps flowing.
					blackholed = true
				case ActionDrip:
					if !p.drip(dst, buf[:n], r.Delay, coin) {
						sever(false)
						return
					}
					n = 0 // already written
				}
			}
			if n > 0 && !blackholed {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					sever(false)
					return
				}
			}
		}
		if err != nil {
			sever(false)
			return
		}
	}
}

// drip writes b in dripSlices pieces with a jittered gap of ~d between
// them. Reports false when the proxy shut down mid-drip.
func (p *Proxy) drip(dst net.Conn, b []byte, d time.Duration, coin uint64) bool {
	per := (len(b) + dripSlices - 1) / dripSlices
	if per <= 0 {
		per = 1
	}
	for i := 0; len(b) > 0; i++ {
		k := per
		if k > len(b) {
			k = len(b)
		}
		if _, err := dst.Write(b[:k]); err != nil {
			return false
		}
		b = b[k:]
		if len(b) > 0 && !p.sleep(jitter(d, seeded.Mix(coin^uint64(i+1)))) {
			return false
		}
	}
	return true
}
