package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"detmt/internal/core"
	"detmt/internal/enc"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/member"
	"detmt/internal/replica"
)

func randValue(rng *rand.Rand) lang.Value {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return rng.Int63() - rng.Int63()
	case 2:
		return rng.Intn(2) == 0
	case 3:
		return lang.ErrValue("backend: call timed out")
	default:
		return lang.Monitor(rng.Intn(64))
	}
}

func randOrigin(rng *rand.Rand) gcs.Origin {
	if rng.Intn(2) == 0 {
		return gcs.Origin{Replica: ids.ReplicaID(rng.Intn(8))}
	}
	return gcs.Origin{Client: ids.ClientID(rng.Intn(8)), IsClient: true}
}

func randPayload(rng *rand.Rand) gcs.Payload {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		req := replica.Request{
			Req:    ids.RequestID(rng.Uint64()),
			Method: "fig1",
		}
		for i := rng.Intn(4); i > 0; i-- {
			req.Args = append(req.Args, randValue(rng))
		}
		return req
	case 2:
		rep := replica.Reply{Req: ids.RequestID(rng.Uint64()), Value: randValue(rng)}
		if rng.Intn(3) == 0 {
			rep.Err = "unknown method"
		}
		return rep
	case 3:
		no := replica.NestedOutcome{
			Req:    ids.RequestID(rng.Uint64()),
			N:      rng.Intn(10),
			Status: replica.NestedStatus(rng.Intn(3)),
		}
		if no.Status == replica.NestedOK {
			no.Value = randValue(rng)
		} else {
			no.Err = "backend: unavailable"
		}
		return no
	case 4:
		su := replica.StateUpdate{UpToSeq: rng.Uint64(), Snapshot: map[string]lang.Value{}}
		for i := rng.Intn(4); i > 0; i-- {
			su.Snapshot[string(rune('a'+rng.Intn(26)))] = randValue(rng)
		}
		return su
	case 5:
		return replica.Dummy{Seq: rng.Uint64()}
	case 6:
		return replica.LSADecision{Index: rng.Uint64(), Event: core.LSAEvent{
			Mutex:  ids.MutexID(rng.Intn(16)),
			Thread: ids.ThreadID(rng.Uint64()),
		}}
	case 7:
		ch := member.Change{
			Kind: member.ChangeKind(1 + rng.Intn(4)),
			ID:   ids.ReplicaID(1 + rng.Intn(8)),
		}
		if ch.Kind == member.Add || ch.Kind == member.Replace {
			ch.Addr = "127.0.0.1:7421"
		}
		if ch.Kind == member.Replace {
			ch.NewID = ids.ReplicaID(10 + rng.Intn(8))
		}
		return ch
	default:
		return "probe payload"
	}
}

func randEnvelope(rng *rand.Rand) gcs.Envelope {
	return gcs.Envelope{
		Kind:    gcs.EnvKind(rng.Intn(6)), // every kind, view-sync included
		Seq:     rng.Uint64(),
		View:    rng.Uint64(),
		UID:     rng.Uint64(),
		Origin:  randOrigin(rng),
		From:    randOrigin(rng),
		To:      randOrigin(rng),
		Stamp:   time.Duration(rng.Int63n(int64(time.Hour))),
		Class:   rng.Uint32(),
		Payload: randPayload(rng),
	}
}

// TestEnvelopeRoundTrip is a randomized property test: every envelope
// the codec can encode decodes back to a deeply equal value, consuming
// exactly the bytes it produced.
func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		env := randEnvelope(rng)
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("iter %d: encode %+v: %v", i, env, err)
		}
		got, n, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("iter %d: consumed %d of %d bytes", i, n, len(b))
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("iter %d: round trip mismatch:\n  sent %+v\n  got  %+v", i, env, got)
		}
	}
}

// TestBatchRoundTrip round-trips multi-envelope batch bodies.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		envs := make([]gcs.Envelope, 1+rng.Intn(5))
		for j := range envs {
			envs[j] = randEnvelope(rng)
		}
		body, err := AppendBatch(nil, envs)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		got, err := DecodeBatch(body)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, envs) {
			t.Fatalf("iter %d: batch mismatch:\n  sent %+v\n  got  %+v", i, envs, got)
		}
	}
}

// TestTruncatedInputs checks that no prefix of a valid encoding makes
// the decoder panic or succeed.
func TestTruncatedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		env := randEnvelope(rng)
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, _, err := DecodeEnvelope(b[:cut]); err == nil {
				t.Fatalf("iter %d: decoding %d of %d bytes succeeded", i, cut, len(b))
			}
		}
	}
}

// TestHelloRoundTrip round-trips the hello frame body.
func TestHelloRoundTrip(t *testing.T) {
	origins := []gcs.Origin{
		{Client: 3, IsClient: true},
		{Client: 9, IsClient: true},
	}
	name, epoch, got, group, err := parseHello(helloBody("load-7", 42, origins, "g2"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "load-7" || epoch != 42 || group != "g2" || !reflect.DeepEqual(got, origins) {
		t.Fatalf("hello mismatch: %q epoch=%d group=%q %+v", name, epoch, group, got)
	}
	// Ungrouped hello (single-group deployments) round-trips too.
	_, _, _, group, err = parseHello(helloBody("R1", 1, nil, ""))
	if err != nil || group != "" {
		t.Fatalf("ungrouped hello: group=%q err=%v", group, err)
	}
}

// TestFrameRoundTrip pushes frames through the stream framing layer.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writePreamble(&buf); err != nil {
		t.Fatal(err)
	}
	want := []frame{
		{kind: frameHello, seq: 0, body: helloBody("R1", 1, nil, "")},
		{kind: frameBatch, seq: 1, body: []byte{1, 2, 3}},
		{kind: frameAck, seq: 0, body: enc.AppendU64(nil, 17)},
	}
	for _, f := range want {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := readPreamble(&buf); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		f, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.kind != w.kind || f.seq != w.seq || !bytes.Equal(f.body, w.body) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, f, w)
		}
	}
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix that claims the
// largest frame and is followed by the end of the stream costs one read
// step, not the 64 MiB it declared.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	prefix := enc.AppendU32(nil, maxFrameLen)
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := readFrame(bytes.NewReader(prefix)); err == nil {
			t.Fatal("read a frame none of whose bytes arrived")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 2*enc.ReadStep {
		t.Fatalf("a %d-byte claim with nothing behind it allocated %d bytes, want at most %d", maxFrameLen, per, 2*enc.ReadStep)
	}
}

// TestGoldenBytes pins the exact wire encoding of a representative
// envelope (and the connection preamble) so accidental format drift
// breaks loudly. If the format changes deliberately, bump Version and
// regenerate the constants below.
func TestGoldenBytes(t *testing.T) {
	var pre bytes.Buffer
	if err := writePreamble(&pre); err != nil {
		t.Fatal(err)
	}
	// v8: one request/reply; a lone envelope travels as a batch of one.
	if got, want := hex.EncodeToString(pre.Bytes()), "44544d540008"; got != want {
		t.Errorf("preamble drifted:\n  got  %s\n  want %s", got, want)
	}

	env := gcs.Envelope{
		Kind:   gcs.EnvSequenced,
		Seq:    7,
		View:   9,
		UID:    0x0102030405060708,
		Origin: gcs.Origin{Client: 2, IsClient: true},
		From:   gcs.Origin{Replica: 1},
		To:     gcs.Origin{Replica: 3},
		Stamp:  250 * time.Millisecond,
		Class:  3,
		Payload: replica.Request{
			Req:    ids.MakeRequestID(2, 5),
			Method: "fig1",
			Args:   []lang.Value{int64(4), true, lang.Monitor(1), nil},
		},
	}
	b, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	const want = "01000000000000000700000000000000090102030405060708010000000000000000000000000000000200000000000000000100000000000000000000000000000000030000000000000000000000000ee6b2800000000301000000020000000500000004666967310000000401000000000000000402000000000000000103000000000000000100"
	if got := hex.EncodeToString(b); got != want {
		t.Errorf("envelope encoding drifted:\n  got  %s\n  want %s", got, want)
	}

	// v7 ConfigChange payload: tag 08, kind, outgoing id, incoming id,
	// incoming address.
	chEnv := gcs.Envelope{
		Kind:   gcs.EnvSequenced,
		Seq:    11,
		View:   2,
		UID:    0x1122334455667788,
		Origin: gcs.Origin{Replica: 1},
		From:   gcs.Origin{Replica: 1},
		To:     gcs.Origin{Replica: 4},
		Stamp:  125 * time.Millisecond,
		Payload: member.Change{
			Kind:  member.Replace,
			ID:    2,
			NewID: 4,
			Addr:  "127.0.0.1:7424",
		},
	}
	b, err = AppendEnvelope(nil, chEnv)
	if err != nil {
		t.Fatal(err)
	}
	const wantCh = "01000000000000000b000000000000000211223344556677880000000000000000010000000000000000000000000000000001000000000000000000000000000000000400000000000000000000000007735940000000000803000000000000000200000000000000040000000e3132372e302e302e313a37343234"
	if got := hex.EncodeToString(b); got != wantCh {
		t.Errorf("ConfigChange encoding drifted:\n  got  %s\n  want %s", got, wantCh)
	}

	// View-sync envelopes, shaped as gcs.leadTakeover and handleViewReq
	// build them: the probe names the proposed view and the candidate; an
	// objecting ack sets the otherwise-unused Origin to the objector.
	viewReq := gcs.Envelope{
		Kind: gcs.EnvViewReq,
		View: 3,
		From: gcs.Origin{Replica: 2},
		To:   gcs.Origin{Replica: 3},
	}
	b, err = AppendEnvelope(nil, viewReq)
	if err != nil {
		t.Fatal(err)
	}
	const wantReq = "0400000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000003000000000000000000000000000000000000000000"
	if got := hex.EncodeToString(b); got != wantReq {
		t.Errorf("EnvViewReq encoding drifted:\n  got  %s\n  want %s", got, wantReq)
	}
	viewAck := gcs.Envelope{
		Kind:   gcs.EnvViewAck,
		View:   3,
		Origin: gcs.Origin{Replica: 3},
		From:   gcs.Origin{Replica: 3},
		To:     gcs.Origin{Replica: 2},
	}
	b, err = AppendEnvelope(nil, viewAck)
	if err != nil {
		t.Fatal(err)
	}
	const wantAck = "0500000000000000000000000000000003000000000000000000000000000000000300000000000000000000000000000000030000000000000000000000000000000002000000000000000000000000000000000000000000"
	if got := hex.EncodeToString(b); got != wantAck {
		t.Errorf("objecting EnvViewAck encoding drifted:\n  got  %s\n  want %s", got, wantAck)
	}
}
