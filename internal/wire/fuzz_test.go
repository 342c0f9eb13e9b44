package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"detmt/internal/gcs"
)

// goldenEnvelopes are the encodings TestGoldenBytes pins (a request, a
// ConfigChange, a view-sync probe and an objecting ack), as fuzz seeds.
var goldenEnvelopes = []string{
	"01000000000000000700000000000000090102030405060708010000000000000000000000000000000200000000000000000100000000000000000000000000000000030000000000000000000000000ee6b2800000000301000000020000000500000004666967310000000401000000000000000402000000000000000103000000000000000100",
	"01000000000000000b000000000000000211223344556677880000000000000000010000000000000000000000000000000001000000000000000000000000000000000400000000000000000000000007735940000000000803000000000000000200000000000000040000000e3132372e302e302e313a37343234",
	"0400000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000003000000000000000000000000000000000000000000",
	"0500000000000000000000000000000003000000000000000000000000000000000300000000000000000000000000000000030000000000000000000000000000000002000000000000000000000000000000000000000000",
}

func seedEnvelopes(f *testing.F) {
	for _, h := range goldenEnvelopes {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		b, err := AppendEnvelope(nil, randEnvelope(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// reencodes checks the decoder/encoder pair on a decoded envelope: what
// decoded must encode, and decode again to the same value. (Bytes need not
// match: any non-zero word decodes to true, a repeated snapshot key to one
// entry.)
func reencodes(t *testing.T, env gcs.Envelope) {
	t.Helper()
	b, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatalf("decoded envelope does not encode: %v\n%+v", err, env)
	}
	again, n, err := DecodeEnvelope(b)
	if err != nil || n != len(b) || !reflect.DeepEqual(again, env) {
		t.Fatalf("decode(encode(x)) != x (consumed %d of %d, err %v)\n x    %+v\n back %+v", n, len(b), err, env, again)
	}
}

// TestMinEnvelopeLen: the bound DecodeBatch sizes its slice by is the
// encoding of the zero envelope.
func TestMinEnvelopeLen(t *testing.T) {
	if b, err := AppendEnvelope(nil, gcs.Envelope{}); err != nil || len(b) != minEnvelopeLen {
		t.Fatalf("the zero envelope encodes to %d bytes (%v), minEnvelopeLen is %d", len(b), err, minEnvelopeLen)
	}
}

// FuzzDecodeEnvelope: any input is an error or an envelope, never a panic;
// an envelope survives its own encoder.
func FuzzDecodeEnvelope(f *testing.F) {
	seedEnvelopes(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		env, n, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reencodes(t, env)
	})
}

// FuzzFrameBodies feeds arbitrary bytes to the two structured frame bodies
// a connection carries, batch and hello: error or value, never a panic,
// and no slice sized by a declared count the body cannot hold.
func FuzzFrameBodies(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		envs := make([]gcs.Envelope, 1+rng.Intn(4))
		for j := range envs {
			envs[j] = randEnvelope(rng)
		}
		b, err := AppendBatch(nil, envs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, h := range []string{ // TestGoldenHelloFrames
		"000000056d312d67310000000000000003000000010100000000000000000000000000000007000000026731",
		"0000000b72696e6766657463682d3100000000000000000000000000000000",
	} {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		envs, err := DecodeBatch(body)
		if cap(envs)*minEnvelopeLen > len(body) {
			t.Fatalf("a %d-byte body reserved room for %d envelopes of at least %d bytes each", len(body), cap(envs), minEnvelopeLen)
		}
		if err == nil {
			for _, e := range envs {
				reencodes(t, e)
			}
		}
		if name, epoch, origins, group, err := parseHello(body); err == nil {
			n2, e2, o2, g2, err := parseHello(helloBody(name, epoch, origins, group))
			if err != nil || n2 != name || e2 != epoch || g2 != group || !reflect.DeepEqual(o2, origins) {
				t.Fatalf("hello does not survive its encoder: %q %d %v %q -> %q %d %v %q, %v", name, epoch, origins, group, n2, e2, o2, g2, err)
			}
		}
	})
}

// FuzzControlReply drives the chunked-reply reassembly two ways: the bytes,
// repeated up to a few chunks' length, as a reply — cut by replyFrames,
// interleaved with a second reply and put back together; and the bytes as
// hostile frames, which must never panic nor make the assembler hold more
// than it was sent.
func FuzzControlReply(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte(`{"id":1,"scheduler":"MAT"}`), uint16(1))
	f.Add([]byte{0xa5, 1, 2, 3}, uint16(controlChunkSize/4*3)) // three chunks, no remainder
	f.Add(append([]byte{5, 0, 0, 0, 0, 0, 0, 0, 9}, make([]byte, 40)...), uint16(1400))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint16) {
		want := bytes.Repeat(data, int(repeat))
		if len(want) > 4*controlChunkSize {
			want = want[:4*controlChunkSize]
		}
		parts := replyParts{}
		other := replyFrames(2, []byte("the other reply"))
		var got []byte
		finished := 0
		for i, fr := range replyFrames(1, want) {
			if i == 1 {
				for _, o := range other {
					if id, reply, done, err := parts.add(o); id != 2 || !done || err != nil || string(reply) != "the other reply" {
						t.Fatalf("interleaved reply: id %d done %v err %v %q", id, done, err, reply)
					}
				}
			}
			id, reply, done, err := parts.add(fr)
			if id != 1 || err != nil {
				t.Fatalf("frame %d: id %d err %v", i, id, err)
			}
			if done {
				got, finished = reply, finished+1
			}
			releaseFrameBody(fr)
		}
		if finished != 1 || !bytes.Equal(got, want) || len(parts) != 0 {
			t.Fatalf("%d-byte reply: finished %d times with %d bytes, %d replies still held", len(want), finished, len(got), len(parts))
		}

		// The same bytes as frames from a hostile peer: byte 0 of each piece
		// picks the kind and the piece's length.
		sent := 0
		for rest := data; len(rest) > 1; {
			kind, n := frameControlChunk, min(int(rest[0]>>1), len(rest)-1)
			if rest[0]&1 == 1 {
				kind = frameControlReply
			}
			sent += n
			parts.add(frame{kind: kind, body: rest[1 : 1+n]})
			rest = rest[1+n:]
		}
		held := 0
		for _, p := range parts {
			held += len(p)
		}
		if held > sent {
			t.Fatalf("holding %d bytes after being sent %d", held, sent)
		}
	})
}
