package remote

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"salsa/internal/netchaos"
)

// randomFrame builds a random valid (kind, payload) pair using the typed
// encoders, so the round-trip property covers every message shape.
func randomFrame(rng *rand.Rand) (Kind, []byte) {
	switch rng.Intn(9) {
	case 0:
		role := RoleProducer
		if rng.Intn(2) == 0 {
			role = RoleWorker
		}
		tok := make([]byte, rng.Intn(24))
		rng.Read(tok)
		return KindHello, AppendHello(nil, Hello{Role: role, Token: tok})
	case 1:
		return KindAck, AppendAck(nil, Ack{A: rng.Uint64(), B: rng.Uint64()})
	case 2:
		codes := []Code{CodeUnknown, CodeSaturated, CodeKilled, CodeCanceled, CodeDeadline, CodeCapacity, CodeProtocol, CodeDraining, CodeUnauthorized}
		msg := make([]byte, rng.Intn(64))
		rng.Read(msg)
		return KindErr, AppendErrMsg(nil, ErrMsg{Code: codes[rng.Intn(len(codes))], Msg: string(msg)})
	case 3, 4:
		b := Batch{Tasks: make([][]byte, rng.Intn(20))}
		for i := range b.Tasks {
			b.Tasks[i] = make([]byte, rng.Intn(100))
			rng.Read(b.Tasks[i])
		}
		if rng.Intn(2) == 0 {
			return KindTasks, AppendBatch(nil, b)
		}
		return KindPutBatch, AppendPutReq(nil, PutReq{Token: rng.Uint64(), Seq: rng.Uint64(), B: b})
	case 5:
		return KindGetBatch, AppendGetReq(nil, GetReq{Max: rng.Uint32(), WaitMs: rng.Uint32()})
	case 6:
		return KindSaturated, AppendSaturated(nil, SaturatedMsg{RetryAfterMs: rng.Uint32()})
	case 7:
		tok := make([]byte, rng.Intn(16))
		rng.Read(tok)
		peer := make([]byte, rng.Intn(32))
		rng.Read(peer)
		return KindQuiesce, AppendQuiesceReq(nil, QuiesceReq{Token: tok, Peer: string(peer)})
	default:
		kinds := []Kind{KindJoin, KindDrain, KindPing}
		return kinds[rng.Intn(len(kinds))], nil
	}
}

// decodePayload round-trips a payload through its kind's typed decoder
// and re-encoder, returning the re-encoding.
func decodePayload(t *testing.T, k Kind, payload []byte) []byte {
	t.Helper()
	switch k {
	case KindHello:
		v, err := DecodeHello(payload)
		if err != nil {
			t.Fatalf("DecodeHello: %v", err)
		}
		return AppendHello(nil, v)
	case KindAck:
		v, err := DecodeAck(payload)
		if err != nil {
			t.Fatalf("DecodeAck: %v", err)
		}
		return AppendAck(nil, v)
	case KindErr:
		v, err := DecodeErrMsg(payload)
		if err != nil {
			t.Fatalf("DecodeErrMsg: %v", err)
		}
		return AppendErrMsg(nil, v)
	case KindPutBatch:
		v, err := DecodePutReq(payload)
		if err != nil {
			t.Fatalf("DecodePutReq: %v", err)
		}
		return AppendPutReq(nil, v)
	case KindTasks:
		v, err := DecodeBatch(payload, k)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		return AppendBatch(nil, v)
	case KindQuiesce:
		v, err := DecodeQuiesceReq(payload)
		if err != nil {
			t.Fatalf("DecodeQuiesceReq: %v", err)
		}
		return AppendQuiesceReq(nil, v)
	case KindGetBatch:
		v, err := DecodeGetReq(payload)
		if err != nil {
			t.Fatalf("DecodeGetReq: %v", err)
		}
		return AppendGetReq(nil, v)
	case KindSaturated:
		v, err := DecodeSaturated(payload)
		if err != nil {
			t.Fatalf("DecodeSaturated: %v", err)
		}
		return AppendSaturated(nil, v)
	default:
		if len(payload) != 0 {
			t.Fatalf("%v: unexpected payload", k)
		}
		return nil
	}
}

// TestFrameRoundTripProperty: for many random frames, encode → DecodeFrame
// → typed decode → typed re-encode reproduces the original bytes exactly,
// and DecodeFrame consumes exactly the frame (trailing bytes untouched).
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k, payload := randomFrame(rng)
		wire := AppendFrame(nil, k, payload)
		// Trailing garbage must not confuse framing.
		tail := make([]byte, rng.Intn(16))
		rng.Read(tail)
		f, consumed, err := DecodeFrame(append(append([]byte(nil), wire...), tail...), DefaultMaxPayload)
		if err != nil {
			t.Fatalf("iter %d: DecodeFrame: %v", i, err)
		}
		if consumed != len(wire) {
			t.Fatalf("iter %d: consumed %d, want %d", i, consumed, len(wire))
		}
		if f.Kind != k || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("iter %d: frame mismatch: kind %v/%v", i, f.Kind, k)
		}
		if re := decodePayload(t, f.Kind, f.Payload); !bytes.Equal(re, payload) {
			t.Fatalf("iter %d: %v payload did not round-trip", i, k)
		}
	}
}

// TestFramedConnChunkedDelivery streams frames through a real TCP pair
// with deliberately fragmented writes: framing must reassemble exactly.
func TestFramedConnChunkedDelivery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	rng := rand.New(rand.NewSource(2))
	const frames = 100
	var wire []byte
	kinds := make([]Kind, frames)
	payloads := make([][]byte, frames)
	for i := 0; i < frames; i++ {
		kinds[i], payloads[i] = randomFrame(rng)
		wire = AppendFrame(wire, kinds[i], payloads[i])
	}

	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for len(wire) > 0 {
			n := 1 + rng.Intn(7)
			if n > len(wire) {
				n = len(wire)
			}
			if _, err := c.Write(wire[:n]); err != nil {
				return
			}
			wire = wire[n:]
		}
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	fc := newFramedConn(c, DefaultMaxPayload)
	for i := 0; i < frames; i++ {
		f, err := fc.read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != kinds[i] || !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("frame %d mismatch: kind %v want %v", i, f.Kind, kinds[i])
		}
	}
	if _, err := fc.read(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

// countingConn counts the Read calls that reach the transport.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// TestFramedConnOneReadPerFrame pins the read-ahead: a frame of at most
// readBufSize bytes that arrives whole costs one Read on the transport (it
// was two: header, then payload). net.Pipe delivers each Write as a unit,
// so "arrives whole" is exact. A read deadline still surfaces as a timeout,
// and the connection still frames correctly after it.
func TestFramedConnOneReadPerFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sizes := []int{0, 16, 2324 - HeaderSize, readBufSize - HeaderSize}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for _, n := range sizes {
			server.Write(AppendFrame(nil, KindTasks, bytes.Repeat([]byte{byte(n)}, n)))
		}
	}()
	cc := &countingConn{Conn: client}
	fc := newFramedConn(cc, DefaultMaxPayload)
	for i, n := range sizes {
		f, err := fc.read()
		if err != nil || f.Kind != KindTasks || !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(n)}, n)) {
			t.Fatalf("frame %d (%d payload bytes): kind %v err %v", i, n, f.Kind, err)
		}
		if cc.reads != i+1 {
			t.Fatalf("frame %d (%d payload bytes) took %d transport reads in total, want %d", i, n, cc.reads, i+1)
		}
	}
	<-sent

	client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	var ne net.Error
	if _, err := fc.read(); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read on an idle connection past its deadline = %v, want a timeout", err)
	}
	client.SetReadDeadline(time.Time{})
	go server.Write(AppendFrame(nil, KindPing, nil))
	if f, err := fc.read(); err != nil || f.Kind != KindPing {
		t.Fatalf("read after the deadline was cleared = (%v, %v), want PING", f.Kind, err)
	}
}

// TestFramedConnThroughNetchaos reads frames across a netchaos proxy: a
// dripped stream (every chunk in slices, delays apart) must reassemble
// exactly, and a mid-stream cut must end in an error after a clean prefix
// of whole frames — never in a frame stitched from read-ahead leftovers.
func TestFramedConnThroughNetchaos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const frames = 60
	var wire []byte
	kinds := make([]Kind, frames)
	payloads := make([][]byte, frames)
	for i := range kinds {
		kinds[i], payloads[i] = randomFrame(rng)
		wire = AppendFrame(wire, kinds[i], payloads[i])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Stream once the client has spoken: a cut that lands while
			// the client is still dialing would fail the dial instead.
			c.Read(make([]byte, 1))
			c.Write(wire)
			c.Close()
		}
	}()
	for _, tc := range []struct {
		spec string
		cut  bool
	}{{"s2c=drip:1ms", false}, {"s2c=reset#1", true}} {
		sched, err := netchaos.ParseSchedule(11, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := netchaos.Listen(ln.Addr().String(), sched)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		c.Write([]byte{0})
		fc := newFramedConn(c, DefaultMaxPayload)
		i := 0
		for ; ; i++ {
			f, err := fc.read()
			if err != nil {
				if !tc.cut && err != io.EOF {
					t.Errorf("%s: frame %d: %v", tc.spec, i, err)
				}
				break
			}
			if i >= frames || f.Kind != kinds[i] || !bytes.Equal(f.Payload, payloads[i]) {
				t.Fatalf("%s: frame %d is not the frame that was sent", tc.spec, i)
			}
		}
		if tc.cut == (i == frames) {
			t.Errorf("%s: %d of %d frames before the stream ended", tc.spec, i, frames)
		}
		c.Close()
		p.Close()
	}
}

func TestDecodeFrameRejections(t *testing.T) {
	valid := AppendFrame(nil, KindPing, nil)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"version skew", func(b []byte) []byte { b[2] = Version + 1; return b }, ErrVersion},
		{"zero kind", func(b []byte) []byte { b[3] = 0; return b }, ErrBadFrame},
		{"unknown kind", func(b []byte) []byte { b[3] = byte(kindCount); return b }, ErrBadFrame},
		{"oversize length", func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrOversize},
		{"truncated payload", func(b []byte) []byte {
			b[7] = 8 // declares 8 payload bytes that are not there
			return b
		}, ErrTruncated},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), valid...))
		if _, _, err := DecodeFrame(b, 1<<10); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeBatchRejectsHostileCount: a count prefix far beyond the bytes
// present must fail before allocation (the over-allocation guard).
func TestDecodeBatchRejectsHostileCount(t *testing.T) {
	// Claims 2^31 tasks in a 12-byte payload.
	payload := []byte{0x80, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := DecodeBatch(payload, KindPutBatch); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	// A count that exceeds MaxTasksPerBatch outright.
	huge := AppendGetReq(nil, GetReq{}) // reuse: 8 zero bytes
	huge[0], huge[1], huge[2], huge[3] = 0x00, 0x10, 0x00, 0x01
	if _, err := DecodeBatch(huge, KindPutBatch); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame for count > MaxTasksPerBatch", err)
	}
}

func TestPayloadTrailingBytesRejected(t *testing.T) {
	b := AppendAck(nil, Ack{A: 1, B: 2})
	b = append(b, 0xAA)
	if _, err := DecodeAck(b); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
	if _, err := DecodeHello([]byte{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty hello accepted: %v", err)
	}
	if _, err := DecodeHello([]byte{99}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown role accepted: %v", err)
	}
}
