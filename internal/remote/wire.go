// Package remote is the wire layer of the distributed task service: a
// compact length-prefixed binary protocol over TCP that moves task *runs*
// (batches), not tasks, between schedulers, shard servers and workers.
//
// Design constraints, in order:
//
//   - Amortization over the wire. Per-task synchronization is what SALSA
//     removes in-process; re-introducing a per-task network round trip
//     would throw that away (cf. Rito & Paulino, arXiv:1810.10615). Every
//     data frame therefore carries a whole run: PUT_BATCH and TASKS frames
//     hold up to MaxTasksPerBatch length-prefixed bodies, and the protocol
//     has no single-task message at all.
//   - Backpressure is the pool's own signal. A shard whose chunk pools are
//     exhausted refuses inserts (salsa.ErrSaturated); the server maps that
//     refusal to a SATURATED frame with a retry-after hint instead of
//     buffering, so the producer-based balancing of §1.5.4 extends across
//     shards: the scheduler spills the rejected run to the next shard on
//     its policy order.
//   - Fuzz-safe decoding. Frames arrive from the network; the decoder must
//     never panic, never over-allocate on a hostile length prefix (the
//     declared length is validated against the configured maximum before
//     any allocation), and must reject version skew with a typed error.
//     FuzzDecodeFrame in this package holds that contract.
//
// The frame layout is an 8-byte header followed by the payload:
//
//	offset 0: magic 'S'                 (resync/garbage detection)
//	offset 1: magic 'L'
//	offset 2: protocol version          (Version; skew is an error)
//	offset 3: frame kind                (Kind)
//	offset 4: payload length, uint32 BE (bounded by MaxPayload)
//
// All multi-byte integers are big-endian. Task bodies are opaque byte
// strings; identity and semantics belong to the application.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Protocol constants.
const (
	// Version is the protocol version carried in every frame header.
	// There is no negotiation: a peer speaking another version is
	// rejected with ErrVersion at the first frame.
	//
	// Version history:
	//
	//	1 — initial protocol (PR 8)
	//	2 — HELLO carries an auth token, PUT_BATCH carries the producer
	//	    token + sequence number for idempotent retry, QUIESCE added
	Version = 2

	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 8

	// DefaultMaxPayload bounds a frame payload unless overridden; the
	// decoder rejects larger declared lengths before allocating.
	DefaultMaxPayload = 4 << 20

	// MaxTasksPerBatch bounds the task count of one PUT_BATCH/TASKS
	// frame; the decoder rejects larger declared counts before
	// allocating.
	MaxTasksPerBatch = 1 << 16

	magic0 = 'S'
	magic1 = 'L'
)

// Kind identifies a frame. The zero value is invalid on purpose.
type Kind uint8

// Frame kinds. Request/response pairing is strict per connection: clients
// send one request frame and read one response frame (no pipelining),
// which keeps both ends allocation-free and makes any interleaving a
// protocol error rather than a correctness hazard.
const (
	// KindHello opens every connection: payload declares the peer role.
	// Server answers ACK (producers: A = leased lane id).
	KindHello Kind = 1 + iota
	// KindAck is the generic success response carrying two uint64s
	// whose meaning depends on the request (see the message structs).
	KindAck
	// KindErr is the typed failure response: a Code plus a message.
	KindErr
	// KindPutBatch carries a run of task bodies from a producer.
	// Answered with ACK (A = tasks accepted) or SATURATED.
	KindPutBatch
	// KindGetBatch asks for up to Max tasks, waiting at most WaitMs.
	// Answered with TASKS (possibly empty) or ERR.
	KindGetBatch
	// KindTasks carries a run of task bodies to a worker.
	KindTasks
	// KindSaturated is the wire form of salsa.ErrSaturated: every chunk
	// pool reachable from the shard's lane refused the insert. Carries a
	// retry-after hint; the scheduler treats it as a spill signal.
	KindSaturated
	// KindJoin registers the connection's worker as a pool consumer
	// (salsa.Pool.AddConsumer). Answered with ACK (A = consumer id,
	// B = lease in milliseconds) or ERR with CodeCapacity.
	KindJoin
	// KindDrain departs gracefully: workers are retired
	// (RetireConsumer), producer lanes are released. Answered with ACK.
	KindDrain
	// KindPing refreshes the sender's lease without moving data.
	// Answered with ACK.
	KindPing
	// KindQuiesce (admin, first frame instead of HELLO) drains the
	// shard: producer lanes are fenced with CodeDraining, residual
	// tasks are re-published to the named peer shard, and consumers are
	// retired. Answered with ACK (A = tasks handed off) once the shard
	// is empty, or ERR.
	KindQuiesce

	kindCount // one past the last valid kind
)

// String returns the frame kind's wire-stable name (used as the metrics
// label in salsa_remote_frames_total{kind}).
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindAck:
		return "ACK"
	case KindErr:
		return "ERR"
	case KindPutBatch:
		return "PUT_BATCH"
	case KindGetBatch:
		return "GET_BATCH"
	case KindTasks:
		return "TASKS"
	case KindSaturated:
		return "SATURATED"
	case KindJoin:
		return "JOIN"
	case KindDrain:
		return "DRAIN"
	case KindPing:
		return "PING"
	case KindQuiesce:
		return "QUIESCE"
	default:
		return fmt.Sprintf("KIND_%d", uint8(k))
	}
}

func (k Kind) valid() bool { return k >= KindHello && k < kindCount }

// Decoder errors. All are wrapped with context; match with errors.Is.
var (
	// ErrBadMagic marks a frame that does not start with the protocol
	// magic — garbage, or a desynchronized stream.
	ErrBadMagic = errors.New("remote: bad frame magic")
	// ErrVersion marks version skew: the peer speaks a different
	// protocol version.
	ErrVersion = errors.New("remote: protocol version mismatch")
	// ErrOversize marks a declared payload length above the configured
	// maximum. Raised before any allocation.
	ErrOversize = errors.New("remote: frame payload exceeds maximum")
	// ErrTruncated marks a frame shorter than its header or declared
	// payload length.
	ErrTruncated = errors.New("remote: truncated frame")
	// ErrBadFrame marks a structurally invalid frame: unknown kind, or
	// a payload that does not parse as its kind's message.
	ErrBadFrame = errors.New("remote: malformed frame")
)

// Frame is one decoded frame. Payload aliases the decode buffer: it is
// valid until the next read on the same connection, and callers that
// retain task bodies must copy them.
type Frame struct {
	Kind    Kind
	Payload []byte
}

// parseHeader validates an 8-byte header and returns the frame kind and
// declared payload length. max bounds the length before any allocation.
func parseHeader(h []byte, max int) (Kind, int, error) {
	if h[0] != magic0 || h[1] != magic1 {
		return 0, 0, fmt.Errorf("%w: % x", ErrBadMagic, h[:2])
	}
	if h[2] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, h[2], Version)
	}
	k := Kind(h[3])
	if !k.valid() {
		return 0, 0, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, h[3])
	}
	n := binary.BigEndian.Uint32(h[4:8])
	if int64(n) > int64(max) {
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrOversize, n, max)
	}
	return k, int(n), nil
}

// DecodeFrame parses one frame from the head of b without copying: the
// returned Frame's payload aliases b. consumed is the total frame size
// (header + payload). max bounds the payload length; lengths above it are
// rejected before any allocation (the fuzz contract).
func DecodeFrame(b []byte, max int) (f Frame, consumed int, err error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderSize)
	}
	k, n, err := parseHeader(b[:HeaderSize], max)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b)-HeaderSize < n {
		return Frame{}, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncated, len(b)-HeaderSize, n)
	}
	return Frame{Kind: k, Payload: b[HeaderSize : HeaderSize+n]}, HeaderSize + n, nil
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, k Kind, payload []byte) []byte {
	dst = append(dst, magic0, magic1, Version, byte(k))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// payloadReader is a bounds-checked cursor over a frame payload. Every
// accessor degrades to the zero value once a bound is crossed; finish()
// reports whether the payload parsed exactly (no error, no trailing
// bytes).
type payloadReader struct {
	b   []byte
	bad bool
}

func (p *payloadReader) u8() uint8 {
	if p.bad || len(p.b) < 1 {
		p.bad = true
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

func (p *payloadReader) u32() uint32 {
	if p.bad || len(p.b) < 4 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(p.b)
	p.b = p.b[4:]
	return v
}

func (p *payloadReader) u64() uint64 {
	if p.bad || len(p.b) < 8 {
		p.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

// bytes reads a u32 length prefix and returns that many bytes as a
// subslice (no copy).
func (p *payloadReader) bytes() []byte {
	n := p.u32()
	if p.bad || uint64(n) > uint64(len(p.b)) {
		p.bad = true
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// finish returns ErrBadFrame when the payload under- or over-ran.
func (p *payloadReader) finish(kind Kind) error {
	if p.bad {
		return fmt.Errorf("%w: short %s payload", ErrBadFrame, kind)
	}
	if len(p.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s payload", ErrBadFrame, len(p.b), kind)
	}
	return nil
}

// Role declares a connection's purpose in HELLO.
type Role uint8

// Connection roles.
const (
	// RoleProducer leases one of the shard's producer lanes and streams
	// PUT_BATCH frames.
	RoleProducer Role = 1
	// RoleWorker joins the shard's consumer membership and streams
	// GET_BATCH frames.
	RoleWorker Role = 2
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleProducer:
		return "producer"
	case RoleWorker:
		return "worker"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Hello is the KindHello payload: the peer's role plus its auth token
// (empty when the shard runs open). The token is always present on the
// wire — a length-prefixed byte string — so there is exactly one
// canonical encoding per Hello value (the fuzz round-trip contract).
type Hello struct {
	Role  Role
	Token []byte
}

// AppendHello appends h's wire encoding to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, byte(h.Role))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(h.Token)))
	return append(dst, h.Token...)
}

// DecodeHello parses a KindHello payload.
func DecodeHello(b []byte) (Hello, error) {
	p := payloadReader{b: b}
	h := Hello{Role: Role(p.u8()), Token: p.bytes()}
	if err := p.finish(KindHello); err != nil {
		return Hello{}, err
	}
	if h.Role != RoleProducer && h.Role != RoleWorker {
		return Hello{}, fmt.Errorf("%w: unknown role %d", ErrBadFrame, h.Role)
	}
	return h, nil
}

// Ack is the KindAck payload: two request-defined values.
//
//	HELLO(producer) → A = leased lane id
//	JOIN            → A = consumer id, B = lease in milliseconds
//	PUT_BATCH       → A = tasks accepted (a prefix of the batch)
//	PING/DRAIN      → both zero
type Ack struct{ A, B uint64 }

// AppendAck appends a's wire encoding to dst.
func AppendAck(dst []byte, a Ack) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.A)
	return binary.BigEndian.AppendUint64(dst, a.B)
}

// DecodeAck parses a KindAck payload.
func DecodeAck(b []byte) (Ack, error) {
	p := payloadReader{b: b}
	a := Ack{A: p.u64(), B: p.u64()}
	if err := p.finish(KindAck); err != nil {
		return Ack{}, err
	}
	return a, nil
}

// ErrMsg is the KindErr payload: a typed error code plus a human-readable
// message. See errors.go for the code ↔ error mapping.
type ErrMsg struct {
	Code Code
	Msg  string
}

// AppendErrMsg appends e's wire encoding to dst.
func AppendErrMsg(dst []byte, e ErrMsg) []byte {
	dst = append(dst, byte(e.Code))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Msg)))
	return append(dst, e.Msg...)
}

// DecodeErrMsg parses a KindErr payload.
func DecodeErrMsg(b []byte) (ErrMsg, error) {
	p := payloadReader{b: b}
	e := ErrMsg{Code: Code(p.u8()), Msg: string(p.bytes())}
	if err := p.finish(KindErr); err != nil {
		return ErrMsg{}, err
	}
	return e, nil
}

// Batch is the KindPutBatch / KindTasks payload: a run of opaque task
// bodies. Decoded bodies alias the frame buffer.
type Batch struct{ Tasks [][]byte }

// AppendBatch appends b's wire encoding to dst.
func AppendBatch(dst []byte, b Batch) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Tasks)))
	for _, t := range b.Tasks {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// appendTasks is AppendBatch straight from a run of the shard's tasks, so
// serving a TASKS frame needs no intermediate [][]byte.
func appendTasks(dst []byte, ts []*Task) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Body)))
		dst = append(dst, t.Body...)
	}
	return dst
}

// DecodeBatch parses a KindPutBatch/KindTasks payload into a fresh slice.
// See decodeBatchInto for the validation contract.
func DecodeBatch(b []byte, kind Kind) (Batch, error) {
	tasks, err := decodeBatchInto(nil, b, kind)
	if err != nil {
		return Batch{}, err
	}
	return Batch{Tasks: tasks}, nil
}

// decodeBatchInto is DecodeBatch into caller-owned scratch: the bodies
// overwrite dst (grown only when the batch outgrows its capacity) and the
// returned slice is exactly the batch — nothing of dst's previous contents
// survives in it. The declared task count is validated against both
// MaxTasksPerBatch and the bytes actually present (each task costs at least
// a 4-byte length prefix) before anything is sized by it, so a hostile count
// cannot over-allocate.
func decodeBatchInto(dst [][]byte, b []byte, kind Kind) ([][]byte, error) {
	p := payloadReader{b: b}
	n := p.u32()
	if p.bad || n > MaxTasksPerBatch || uint64(n) > uint64(len(p.b)/4) {
		return nil, fmt.Errorf("%w: task count %d", ErrBadFrame, n)
	}
	if cap(dst) < int(n) {
		dst = make([][]byte, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = p.bytes()
	}
	if err := p.finish(kind); err != nil {
		return nil, err
	}
	return dst, nil
}

// PutReq is the KindPutBatch payload: the batch plus the producer's
// idempotency identity. Token is a random per-producer id and Seq a
// monotonically increasing request number; together they let the shard
// deduplicate a retry whose original ACK was lost to a connection cut
// (the wire-level analogue of the rescue double-take, DESIGN.md §14).
// Token 0 opts out of deduplication.
type PutReq struct {
	Token uint64
	Seq   uint64
	B     Batch
}

// AppendPutReq appends r's wire encoding to dst.
func AppendPutReq(dst []byte, r PutReq) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Token)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	return AppendBatch(dst, r.B)
}

// DecodePutReq parses a KindPutBatch payload. Task bodies alias b.
func DecodePutReq(b []byte) (PutReq, error) {
	return decodePutReqInto(nil, b)
}

// decodePutReqInto is DecodePutReq with the bodies decoded into dst (see
// decodeBatchInto).
func decodePutReqInto(dst [][]byte, b []byte) (PutReq, error) {
	p := payloadReader{b: b}
	r := PutReq{Token: p.u64(), Seq: p.u64()}
	if p.bad {
		return PutReq{}, fmt.Errorf("%w: short %s payload", ErrBadFrame, KindPutBatch)
	}
	var err error
	r.B.Tasks, err = decodeBatchInto(dst, p.b, KindPutBatch)
	if err != nil {
		return PutReq{}, err
	}
	return r, nil
}

// QuiesceReq is the KindQuiesce payload.
type QuiesceReq struct {
	// Token must match the shard's auth token (always present on the
	// wire, empty when the shard runs open): quiescing is an admin
	// action.
	Token []byte
	// Peer is the shard address residual tasks are handed off to.
	// Empty means drain-in-place is refused unless the shard is empty.
	Peer string
}

// AppendQuiesceReq appends q's wire encoding to dst.
func AppendQuiesceReq(dst []byte, q QuiesceReq) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(q.Token)))
	dst = append(dst, q.Token...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(q.Peer)))
	return append(dst, q.Peer...)
}

// DecodeQuiesceReq parses a KindQuiesce payload.
func DecodeQuiesceReq(b []byte) (QuiesceReq, error) {
	p := payloadReader{b: b}
	q := QuiesceReq{Token: p.bytes(), Peer: string(p.bytes())}
	if err := p.finish(KindQuiesce); err != nil {
		return QuiesceReq{}, err
	}
	return q, nil
}

// GetReq is the KindGetBatch payload.
type GetReq struct {
	// Max bounds the tasks returned (the server additionally clamps it).
	Max uint32
	// WaitMs bounds how long the server may hold the request while the
	// shard is dry before answering with an empty TASKS frame.
	WaitMs uint32
}

// AppendGetReq appends g's wire encoding to dst.
func AppendGetReq(dst []byte, g GetReq) []byte {
	dst = binary.BigEndian.AppendUint32(dst, g.Max)
	return binary.BigEndian.AppendUint32(dst, g.WaitMs)
}

// DecodeGetReq parses a KindGetBatch payload.
func DecodeGetReq(b []byte) (GetReq, error) {
	p := payloadReader{b: b}
	g := GetReq{Max: p.u32(), WaitMs: p.u32()}
	if err := p.finish(KindGetBatch); err != nil {
		return GetReq{}, err
	}
	return g, nil
}

// SaturatedMsg is the KindSaturated payload.
type SaturatedMsg struct {
	// RetryAfterMs is the shard's hint for when an insert may succeed
	// again. Schedulers should spill to another shard first and only
	// sleep when every shard is saturated.
	RetryAfterMs uint32
}

// AppendSaturated appends s's wire encoding to dst.
func AppendSaturated(dst []byte, s SaturatedMsg) []byte {
	return binary.BigEndian.AppendUint32(dst, s.RetryAfterMs)
}

// DecodeSaturated parses a KindSaturated payload.
func DecodeSaturated(b []byte) (SaturatedMsg, error) {
	p := payloadReader{b: b}
	s := SaturatedMsg{RetryAfterMs: p.u32()}
	if err := p.finish(KindSaturated); err != nil {
		return SaturatedMsg{}, err
	}
	return s, nil
}

// readBufSize is the framed connection's read-ahead: a frame of at most
// this many bytes that arrived whole costs one read on the socket, not one
// for the header and one for the payload.
const readBufSize = 4096

// framedConn is a framed connection: buffered reads, single-write frames,
// and reusable read/write buffers. Not safe for concurrent use; the
// protocol is strictly request/response per connection.
type framedConn struct {
	c    net.Conn
	r    *bufio.Reader
	hdr  [HeaderSize]byte
	rbuf []byte
	wbuf []byte
	max  int
}

func newFramedConn(c net.Conn, maxPayload int) *framedConn {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &framedConn{c: c, r: bufio.NewReaderSize(c, readBufSize), max: maxPayload}
}

// read reads one frame. The returned payload aliases the connection's
// read buffer and is valid until the next read.
func (fc *framedConn) read() (Frame, error) {
	if _, err := io.ReadFull(fc.r, fc.hdr[:]); err != nil {
		return Frame{}, err
	}
	k, n, err := parseHeader(fc.hdr[:], fc.max)
	if err != nil {
		return Frame{}, err
	}
	if cap(fc.rbuf) < n {
		fc.rbuf = make([]byte, n)
	}
	buf := fc.rbuf[:n]
	if _, err := io.ReadFull(fc.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return Frame{Kind: k, Payload: buf}, nil
}

// begin starts a frame of kind k in the connection's write buffer. The
// caller appends the payload to fc.wbuf and sends it with flush, so a
// reply is encoded in place: no payload slice of its own, no copy.
func (fc *framedConn) begin(k Kind) {
	fc.wbuf = append(fc.wbuf[:0], magic0, magic1, Version, byte(k), 0, 0, 0, 0)
}

// flush stamps the payload length into the header begin left open and
// sends the frame as a single Write call.
func (fc *framedConn) flush() error {
	binary.BigEndian.PutUint32(fc.wbuf[4:HeaderSize], uint32(len(fc.wbuf)-HeaderSize))
	_, err := fc.c.Write(fc.wbuf)
	return err
}

// write sends one frame as a single Write call.
func (fc *framedConn) write(k Kind, payload []byte) error {
	fc.begin(k)
	fc.wbuf = append(fc.wbuf, payload...)
	return fc.flush()
}

// writeErr sends a typed KindErr frame for err (see CodeOf).
func (fc *framedConn) writeErr(err error) error {
	fc.begin(KindErr)
	fc.wbuf = AppendErrMsg(fc.wbuf, ErrMsg{Code: CodeOf(err), Msg: err.Error()})
	return fc.flush()
}

func (fc *framedConn) Close() error { return fc.c.Close() }
