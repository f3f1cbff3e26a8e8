package netchaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestScheduleVocabulary holds the rows only netchaos's vocabulary can
// answer — the delay/drip default and the exact error texts; the grammar
// itself is tested once, in internal/seeded.
func TestScheduleVocabulary(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"c2s=drip@0.1", "c2s=drip:1ms@0.1"},
		{"accept=delay", "accept=delay:1ms"},
		{"c2s=drip:20ms@0.1,s2c=blackhole#2", "c2s=drip:20ms@0.1,s2c=blackhole#2"},
		{"accept=blackhole#1, c2s=reset", "accept=blackhole#1,c2s=reset"},
	} {
		s, err := ParseSchedule(1, tc.spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", tc.spec, err)
		}
		if got := s.Spec(); got != tc.want {
			t.Errorf("ParseSchedule(%q).Spec() = %q, want %q", tc.spec, got, tc.want)
		}
	}
	for _, tc := range []struct{ spec, want string }{
		{"c2s=reset:5ms", `netchaos: rule "c2s=reset:5ms": duration only valid for delay/drip`},
		{"c2s=explode", `netchaos: rule "c2s=explode": netchaos: unknown action "explode" (want delay|reset|blackhole|drip)`},
		{"nowhere=reset", `netchaos: unknown site "nowhere" (want accept|c2s|s2c)`},
		{"c2s", `netchaos: rule "c2s": want site=action[:delay][@rate][#count]`},
	} {
		if _, err := ParseSchedule(1, tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("ParseSchedule(%q) error = %v, want %s", tc.spec, err, tc.want)
		}
	}
}

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestProxyCleanForwarding(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := Listen(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("through the wire")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if n := p.sched.TotalFired(); n != 0 {
		t.Errorf("fault-free proxy fired %d rules", n)
	}
}

func TestProxyResetMidStream(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	sched, err := ParseSchedule(7, "c2s=reset#1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Listen(addr, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	// The write itself may land in kernel buffers; the read must fail
	// (reset or EOF) rather than echo the full message.
	c.Write(bytes.Repeat([]byte("x"), 1<<10))
	buf := make([]byte, 1<<11)
	n := 0
	var rerr error
	for rerr == nil {
		var k int
		k, rerr = c.Read(buf[n:])
		n += k
		if n >= 1<<10 {
			t.Fatalf("full echo of %d bytes arrived through a reset link", n)
		}
	}
	if p.Faults()["reset"] != 1 {
		t.Errorf("faults = %v, want reset:1", p.Faults())
	}
}

func TestProxyAcceptBlackhole(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	sched, _ := ParseSchedule(3, "accept=blackhole#1")
	p, err := Listen(addr, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// First connection: swallowed. Dial succeeds, reads time out.
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("hello?"))
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read from a blackholed connection returned data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("blackholed read = %v, want timeout", err)
	}
	c.Close()

	// Second connection: the #1 budget is spent, service resumes.
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetDeadline(time.Now().Add(5 * time.Second))
	c2.Write([]byte("ok"))
	got := make([]byte, 2)
	if _, err := io.ReadFull(c2, got); err != nil || string(got) != "ok" {
		t.Fatalf("post-budget echo = %q, %v", got, err)
	}
	if p.Faults()["blackhole"] != 1 {
		t.Errorf("faults = %v, want blackhole:1", p.Faults())
	}
}

// TestProxyOneWayPartition checks that a c2s blackhole kills only the
// client→server direction: the server's own writes still arrive.
func TestProxyOneWayPartition(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	greeted := make(chan struct{})
	heard := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write([]byte("greeting")) // s2c flows regardless
		close(greeted)
		c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, _ := io.Copy(io.Discard, c)
		heard <- int(n)
	}()

	sched, _ := ParseSchedule(11, "c2s=blackhole")
	p, err := Listen(ln.Addr().String(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	c.Write([]byte("vanishes"))
	got := make([]byte, 8)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "greeting" {
		t.Fatalf("s2c through a c2s partition = %q, %v", got, err)
	}
	<-greeted
	if n := <-heard; n != 0 {
		t.Errorf("server heard %d bytes through the partition", n)
	}
}

func TestProxyDripDelivers(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	sched, _ := ParseSchedule(5, "s2c=drip:10ms")
	p, err := Listen(addr, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	msg := bytes.Repeat([]byte("d"), 512)
	start := time.Now()
	c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	// Three inter-slice gaps of >= 5ms each (jitter floor d/2).
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("dripped 512 bytes in %v, want >= 15ms", el)
	}
	if !bytes.Equal(got, msg) {
		t.Error("dripped bytes corrupted")
	}
}

// TestProxyReplayableFaults runs identical traffic through two proxies
// with the same seed and spec and requires identical fault decisions —
// the replay contract printed on chaos-matrix failures.
func TestProxyReplayableFaults(t *testing.T) {
	run := func(seed uint64) map[string]int64 {
		addr, stop := echoServer(t)
		defer stop()
		sched, err := ParseSchedule(seed, "c2s=delay:1ms@0.3,s2c=delay:1ms@0.4")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Listen(addr, sched)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 64)
		for i := 0; i < 20; i++ { // strict ping-pong: deterministic chunking
			msg := []byte(fmt.Sprintf("chunk-%02d-padded-to-a-fixed-width-of-64-bytes-xxxxxxxxxxxxxxx", i))[:64]
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Fatal(err)
			}
		}
		return sched.Fired()
	}
	a, b := run(99), run(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault decisions:\n  %v\n  %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no rules fired in 20 round trips at rates 0.3/0.4")
	}
}
