package remote

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeFrame is the decoder's safety contract under hostile input:
// DecodeFrame and every per-kind payload decoder must never panic, never
// allocate proportionally to a declared (rather than present) length, and
// on success must describe exactly the bytes consumed — re-encoding the
// decoded frame reproduces the consumed prefix.
func FuzzDecodeFrame(f *testing.F) {
	// Corpus: every message shape, plus the interesting rejections.
	f.Add(AppendFrame(nil, KindHello, AppendHello(nil, Hello{Role: RoleProducer})))
	f.Add(AppendFrame(nil, KindHello, AppendHello(nil, Hello{Role: RoleWorker, Token: []byte("secret")})))
	f.Add(AppendFrame(nil, KindAck, AppendAck(nil, Ack{A: 7, B: 3000})))
	f.Add(AppendFrame(nil, KindErr, AppendErrMsg(nil, ErrMsg{Code: CodeKilled, Msg: "lease expired"})))
	f.Add(AppendFrame(nil, KindPutBatch, AppendPutReq(nil, PutReq{Token: 0xfeed, Seq: 9, B: Batch{Tasks: [][]byte{[]byte("a"), []byte("bc"), nil}}})))
	f.Add(AppendFrame(nil, KindGetBatch, AppendGetReq(nil, GetReq{Max: 256, WaitMs: 50})))
	f.Add(AppendFrame(nil, KindTasks, AppendBatch(nil, Batch{})))
	f.Add(AppendFrame(nil, KindSaturated, AppendSaturated(nil, SaturatedMsg{RetryAfterMs: 2})))
	f.Add(AppendFrame(nil, KindJoin, nil))
	f.Add(AppendFrame(nil, KindDrain, nil))
	f.Add(AppendFrame(nil, KindPing, nil))
	f.Add(AppendFrame(nil, KindQuiesce, AppendQuiesceReq(nil, QuiesceReq{Token: []byte("secret"), Peer: "127.0.0.1:9"})))
	// Version skew, bad magic, truncations, hostile lengths.
	f.Add([]byte{magic0, magic1, Version + 1, byte(KindPing), 0, 0, 0, 0})
	f.Add([]byte{'X', 'L', Version, byte(KindPing), 0, 0, 0, 0})
	f.Add([]byte{magic0, magic1, Version, byte(KindPing), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{magic0, magic1, Version, byte(KindPutBatch), 0, 0, 0, 12, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{magic0, magic1, Version})
	f.Add([]byte{})
	// A couple of longer random-but-valid frames for shape diversity.
	rng := rand.New(rand.NewSource(42))
	big := Batch{Tasks: make([][]byte, 50)}
	for i := range big.Tasks {
		big.Tasks[i] = make([]byte, rng.Intn(64))
		rng.Read(big.Tasks[i])
	}
	f.Add(AppendFrame(nil, KindPutBatch, AppendPutReq(nil, PutReq{Token: 1, Seq: 2, B: big})))

	// The into-scratch decoders run against scratch a longer batch has
	// already been through, so an entry they failed to overwrite would
	// surface as a stale body.
	stale := Batch{Tasks: make([][]byte, 300)}
	for i := range stale.Tasks {
		stale.Tasks[i] = []byte("stale")
	}
	staleEnc := AppendBatch(nil, stale)

	const fuzzMax = 1 << 16 // small cap: over-allocation would be visible as OOM/latency
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, consumed, err := DecodeFrame(data, fuzzMax)
		if err != nil {
			if consumed != 0 {
				t.Fatalf("error with consumed=%d", consumed)
			}
			return
		}
		if consumed < HeaderSize || consumed > len(data) {
			t.Fatalf("consumed %d out of range [%d,%d]", consumed, HeaderSize, len(data))
		}
		// Re-encoding the decoded frame must reproduce the consumed prefix.
		re := AppendFrame(nil, fr.Kind, fr.Payload)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:consumed])
		}
		// Each kind's payload decoder must not panic either; on success
		// its re-encoding must reproduce the payload exactly.
		var tre []byte
		var terr error
		switch fr.Kind {
		case KindHello:
			v, err := DecodeHello(fr.Payload)
			tre, terr = AppendHello(nil, v), err
		case KindAck:
			v, err := DecodeAck(fr.Payload)
			tre, terr = AppendAck(nil, v), err
		case KindErr:
			v, err := DecodeErrMsg(fr.Payload)
			tre, terr = AppendErrMsg(nil, v), err
		case KindPutBatch:
			v, err := DecodePutReq(fr.Payload)
			tre, terr = AppendPutReq(nil, v), err
			scratch, _ := decodeBatchInto(nil, staleEnc, KindTasks)
			into, ierr := decodePutReqInto(scratch, fr.Payload)
			sameDecode(t, v.B.Tasks, err, into.B.Tasks, ierr)
			if err == nil && (into.Token != v.Token || into.Seq != v.Seq) {
				t.Fatalf("into-scratch PUT_BATCH identity (%d, %d), want (%d, %d)", into.Token, into.Seq, v.Token, v.Seq)
			}
		case KindTasks:
			v, err := DecodeBatch(fr.Payload, fr.Kind)
			tre, terr = AppendBatch(nil, v), err
			scratch, _ := decodeBatchInto(nil, staleEnc, KindTasks)
			into, ierr := decodeBatchInto(scratch, fr.Payload, fr.Kind)
			sameDecode(t, v.Tasks, err, into, ierr)
		case KindQuiesce:
			v, err := DecodeQuiesceReq(fr.Payload)
			tre, terr = AppendQuiesceReq(nil, v), err
		case KindGetBatch:
			v, err := DecodeGetReq(fr.Payload)
			tre, terr = AppendGetReq(nil, v), err
		case KindSaturated:
			v, err := DecodeSaturated(fr.Payload)
			tre, terr = AppendSaturated(nil, v), err
		default: // JOIN/DRAIN/PING carry no payload message
			return
		}
		if terr != nil {
			return // structurally invalid payload under a valid header: fine
		}
		if !bytes.Equal(tre, fr.Payload) {
			t.Fatalf("%v payload re-encode mismatch", fr.Kind)
		}
	})
}

// sameDecode requires the allocating and the into-scratch decode of one
// payload to agree: both fail, or both yield the same bodies.
func sameDecode(t *testing.T, fresh [][]byte, ferr error, into [][]byte, ierr error) {
	t.Helper()
	if (ferr == nil) != (ierr == nil) {
		t.Fatalf("fresh decode err = %v, into-scratch err = %v", ferr, ierr)
	}
	if ferr != nil {
		return
	}
	if len(into) != len(fresh) {
		t.Fatalf("into-scratch decoded %d bodies, fresh %d", len(into), len(fresh))
	}
	for i := range fresh {
		if !bytes.Equal(into[i], fresh[i]) {
			t.Fatalf("body %d: into-scratch %q, fresh %q", i, into[i], fresh[i])
		}
	}
}
