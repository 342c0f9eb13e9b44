// Package wire implements the networking subsystem that takes detmt out
// of the simulator: a length-prefixed, versioned binary codec for the
// gcs envelope and payload types, and a TCP transport that offers two
// things over one set of connections — gcs.Transport (per-link FIFO,
// bounded-backoff reconnect, exactly-once delivery by at-least-once
// redelivery plus per-sender sequence-number suppression) and one
// out-of-band request/reply, TCP.Control, answered by the peer's
// Options.OnControl. Everything else a deployment says to a server —
// status, membership, chaos, the ring, and the checkpoint, sequenced-tail
// and decision fetches of a rejoining replica — is a command carried by
// Control (internal/server lists them).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sync"
	"time"

	"detmt/internal/core"
	"detmt/internal/enc"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/member"
	"detmt/internal/replica"
)

// Preamble is exchanged once per connection before any frames: a magic
// string identifying the protocol followed by the protocol version.
// Version bumps whenever the frame or envelope encoding changes shape;
// the golden-bytes test in codec_test.go pins the current format. Every
// process of a deployment is built from one commit and the handshake
// rejects any other version, so no older shape is understood.
const (
	Magic   = "DTMT"
	Version = uint16(8) // v8: one request/reply; a lone envelope is a batch of one
)

// Frame kinds. Every frame is u32 length, u8 kind, u64 seq, body.
//
//	kind            body                                    direction
//	hello           str name, u64 epoch, u32 n, n×origin,   dialer → acceptor, first frame
//	                str group                               and on every Bind of a client origin
//	batch           u32 n, n×envelope (delivered as one     both (replies to clients ride the
//	                unit; a lone envelope is n = 1)         accepted connection back)
//	ack             u64 highest frame seq delivered         acceptor → dialer
//	control         u64 request id, request bytes           dialer → acceptor
//	control-chunk   u64 request id, 64 KiB of the reply     acceptor → dialer
//	control-reply   u64 request id, u64 reply length,       acceptor → dialer, ends the reply
//	                u64 FNV-64 of the reply, its last piece
//
// A reply of at most controlChunkSize bytes is one control-reply frame. A
// longer one is cut into control-chunk frames — their own kind, not a flag
// in the reply frame, so that frame's layout never varies — which lets
// acks and other replies interleave with it on the accepted connection;
// the requester checks length and hash of what it reassembled.
const (
	frameHello        = byte(1)
	frameBatch        = byte(2)
	frameAck          = byte(3)
	frameControl      = byte(4)
	frameControlReply = byte(5)
	frameControlChunk = byte(6)
)

// Payload type tags.
const (
	tagNil           = byte(0)
	tagRequest       = byte(1)
	tagReply         = byte(2)
	tagNestedOutcome = byte(3)
	tagStateUpdate   = byte(4)
	tagDummy         = byte(5)
	tagLSADecision   = byte(6)
	tagString        = byte(7) // debugging / test payloads
	tagConfigChange  = byte(8) // v7: membership change riding the total order
)

// maxFrameLen bounds a single frame (64 MiB). readFrame allocates as the
// bytes arrive (enc.ReadN), so a corrupt length prefix costs what the
// stream delivers, not what it claims.
const maxFrameLen = 64 << 20

var (
	errBadMagic   = errors.New("wire: bad connection preamble")
	errShortFrame = errors.New("wire: truncated frame")
)

// frame is one wire transfer unit. seq is a per-sender monotone counter
// used for duplicate suppression across reconnects; seq 0 marks frames
// exempt from dedup (hellos, acks, control replies, reply routing).
// buf is non-nil when body was drawn from bodyPool: the owner releases
// it via releaseFrameBody once the frame can no longer be
// (re)transmitted.
type frame struct {
	kind byte
	seq  uint64
	body []byte
	buf  *encodeBuf
}

// encodeBuf wraps a byte slice so sync.Pool stores a stable pointer (a
// bare slice in an interface would allocate on every Put).
type encodeBuf struct{ b []byte }

// framePool recycles writeFrame's scratch (length prefix + header +
// body copy); the buffer never escapes the call.
var framePool = sync.Pool{New: func() interface{} { return new(encodeBuf) }}

// bodyPool recycles frame *bodies* — buffers that live from encode time
// until the frame is acknowledged (dialed links) or written (inbound
// links). Per-message sends draw from here instead of allocating.
var bodyPool = sync.Pool{New: func() interface{} { return new(encodeBuf) }}

// pooledBody returns an empty body buffer plus its pool wrapper; store
// the wrapper in frame.buf so releaseFrameBody can return it.
func pooledBody() *encodeBuf {
	eb := bodyPool.Get().(*encodeBuf)
	eb.b = eb.b[:0]
	return eb
}

// releaseFrameBody returns a pooled frame body for reuse. Callers must
// guarantee the frame is dead: dropped, or acknowledged by the peer —
// never a frame still queued for (re)transmission.
func releaseFrameBody(f frame) {
	if f.buf == nil {
		return
	}
	f.buf.b = f.body[:0] // keep the grown capacity for the next frame
	bodyPool.Put(f.buf)
}

// codec names this format to the shared reader and Value codec.
var codec = enc.Format{Name: "wire", Truncated: errShortFrame}

// ---- origin ----

func appendOrigin(b []byte, o gcs.Origin) []byte {
	flag := byte(0)
	if o.IsClient {
		flag = 1
	}
	b = append(b, flag)
	b = enc.AppendI64(b, int64(o.Replica))
	return enc.AppendI64(b, int64(o.Client))
}

func readOrigin(r *enc.Reader) gcs.Origin {
	flag := r.U8()
	rep := r.I64()
	cl := r.I64()
	return gcs.Origin{Replica: ids.ReplicaID(rep), Client: ids.ClientID(cl), IsClient: flag != 0}
}

// ---- payload ----

// AppendPayload appends the binary encoding of p to b: the payload as it
// travels inside an envelope, usable on its own (the LSA decision tail a
// rejoining follower fetches is a run of them).
func AppendPayload(b []byte, p gcs.Payload) ([]byte, error) {
	var err error
	switch x := p.(type) {
	case nil:
		return append(b, tagNil), nil
	case replica.Request:
		b = append(b, tagRequest)
		b = enc.AppendU64(b, uint64(x.Req))
		b = enc.AppendString(b, x.Method)
		b = enc.AppendU32(b, uint32(len(x.Args)))
		for _, a := range x.Args {
			if b, err = codec.AppendValue(b, a); err != nil {
				return b, err
			}
		}
		return b, nil
	case replica.Reply:
		b = append(b, tagReply)
		b = enc.AppendU64(b, uint64(x.Req))
		if b, err = codec.AppendValue(b, x.Value); err != nil {
			return b, err
		}
		return enc.AppendString(b, x.Err), nil
	case replica.NestedOutcome:
		b = append(b, tagNestedOutcome)
		b = enc.AppendU64(b, uint64(x.Req))
		b = enc.AppendI64(b, int64(x.N))
		b = append(b, byte(x.Status))
		if b, err = codec.AppendValue(b, x.Value); err != nil {
			return b, err
		}
		return enc.AppendString(b, x.Err), nil
	case replica.StateUpdate:
		b = append(b, tagStateUpdate)
		b = enc.AppendU64(b, x.UpToSeq)
		keys := make([]string, 0, len(x.Snapshot))
		for k := range x.Snapshot {
			keys = append(keys, k)
		}
		slices.Sort(keys) // deterministic bytes for identical snapshots
		b = enc.AppendU32(b, uint32(len(keys)))
		for _, k := range keys {
			b = enc.AppendString(b, k)
			if b, err = codec.AppendValue(b, x.Snapshot[k]); err != nil {
				return b, err
			}
		}
		return b, nil
	case replica.Dummy:
		return enc.AppendU64(append(b, tagDummy), x.Seq), nil
	case replica.LSADecision:
		b = append(b, tagLSADecision)
		b = enc.AppendU64(b, x.Index)
		b = enc.AppendI64(b, int64(x.Event.Mutex))
		return enc.AppendU64(b, uint64(x.Event.Thread)), nil
	case string:
		return enc.AppendString(append(b, tagString), x), nil
	case member.Change:
		b = append(b, tagConfigChange)
		b = append(b, byte(x.Kind))
		b = enc.AppendI64(b, int64(x.ID))
		b = enc.AppendI64(b, int64(x.NewID))
		return enc.AppendString(b, x.Addr), nil
	default:
		return b, fmt.Errorf("wire: unencodable payload type %T", p)
	}
}

func readPayload(r *enc.Reader) gcs.Payload {
	switch tag := r.U8(); tag {
	case tagNil:
		return nil
	case tagRequest:
		req := replica.Request{Req: ids.RequestID(r.U64()), Method: r.Str()}
		for n := r.Count(1); n > 0; n-- {
			req.Args = append(req.Args, r.Value())
		}
		return req
	case tagReply:
		return replica.Reply{Req: ids.RequestID(r.U64()), Value: r.Value(), Err: r.Str()}
	case tagNestedOutcome:
		return replica.NestedOutcome{
			Req:    ids.RequestID(r.U64()),
			N:      int(r.I64()),
			Status: replica.NestedStatus(r.U8()),
			Value:  r.Value(),
			Err:    r.Str(),
		}
	case tagStateUpdate:
		su := replica.StateUpdate{UpToSeq: r.U64(), Snapshot: map[string]lang.Value{}}
		for n := r.Count(1); n > 0; n-- {
			k := r.Str()
			su.Snapshot[k] = r.Value()
		}
		return su
	case tagDummy:
		return replica.Dummy{Seq: r.U64()}
	case tagLSADecision:
		return replica.LSADecision{Index: r.U64(), Event: core.LSAEvent{
			Mutex:  ids.MutexID(r.I64()),
			Thread: ids.ThreadID(r.U64()),
		}}
	case tagString:
		return r.Str()
	case tagConfigChange:
		return member.Change{
			Kind:  member.ChangeKind(r.U8()),
			ID:    ids.ReplicaID(r.I64()),
			NewID: ids.ReplicaID(r.I64()),
			Addr:  r.Str(),
		}
	default:
		if r.Err == nil {
			r.Err = fmt.Errorf("wire: unknown payload tag %d", tag)
		}
		return nil
	}
}

// DecodePayload decodes a single payload from b (as produced by
// AppendPayload), returning the number of bytes consumed.
func DecodePayload(b []byte) (gcs.Payload, int, error) {
	r := codec.Reader(b)
	p := readPayload(&r)
	if r.Err != nil {
		return nil, 0, r.Err
	}
	return p, r.Off, nil
}

// ---- envelope ----

// AppendEnvelope appends the binary encoding of env to b.
func AppendEnvelope(b []byte, env gcs.Envelope) ([]byte, error) {
	b = append(b, byte(env.Kind))
	b = enc.AppendU64(b, env.Seq)
	b = enc.AppendU64(b, env.View)
	b = enc.AppendU64(b, env.UID)
	b = appendOrigin(b, env.Origin)
	b = appendOrigin(b, env.From)
	b = appendOrigin(b, env.To)
	b = enc.AppendI64(b, int64(env.Stamp))
	b = enc.AppendU32(b, env.Class)
	return AppendPayload(b, env.Payload)
}

// readEnvelope reads one envelope from r.
func readEnvelope(r *enc.Reader) gcs.Envelope {
	env := gcs.Envelope{
		Kind:   gcs.EnvKind(r.U8()),
		Seq:    r.U64(),
		View:   r.U64(),
		UID:    r.U64(),
		Origin: readOrigin(r),
		From:   readOrigin(r),
		To:     readOrigin(r),
		Stamp:  time.Duration(r.I64()),
	}
	env.Class = r.U32()
	env.Payload = readPayload(r)
	return env
}

// DecodeEnvelope decodes a single envelope from b (as produced by
// AppendEnvelope), returning the number of bytes consumed.
func DecodeEnvelope(b []byte) (gcs.Envelope, int, error) {
	r := codec.Reader(b)
	env := readEnvelope(&r)
	if r.Err != nil {
		return gcs.Envelope{}, 0, r.Err
	}
	return env, r.Off, nil
}

// ---- frame body builders ----

// helloBody encodes the per-connection greeting. epoch is the sender's
// restart incarnation: receivers reset the sender's dedup state when it
// grows and reject connections carrying an older one (0 opts out of
// epoch semantics entirely, for processes that never restart in place).
// group (v6) tags the sender's shard: receivers belonging to a
// different group refuse the connection so two shards' total orders can
// never splice.
func helloBody(name string, epoch uint64, origins []gcs.Origin, group string) []byte {
	b := enc.AppendString(nil, name)
	b = enc.AppendU64(b, epoch)
	b = enc.AppendU32(b, uint32(len(origins)))
	for _, o := range origins {
		b = appendOrigin(b, o)
	}
	return enc.AppendString(b, group)
}

func parseHello(body []byte) (name string, epoch uint64, origins []gcs.Origin, group string, err error) {
	r := codec.Reader(body)
	name = r.Str()
	epoch = r.U64()
	for n := r.Count(1); n > 0; n-- {
		origins = append(origins, readOrigin(&r))
	}
	group = r.Str()
	return name, epoch, origins, group, r.Err
}

// AppendBatch appends the body of a batch frame: a count and that many
// envelopes, handed to the receiver as one unit.
func AppendBatch(b []byte, envs []gcs.Envelope) ([]byte, error) {
	b = enc.AppendU32(b, uint32(len(envs)))
	var err error
	for _, e := range envs {
		if b, err = AppendEnvelope(b, e); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// minEnvelopeLen is the encoding of an envelope whose payload is nil: the
// fixed fields, three origins and a payload tag.
const minEnvelopeLen = 1 + 3*8 + 3*17 + 8 + 4 + 1

// DecodeBatch decodes a batch body (as produced by AppendBatch).
func DecodeBatch(body []byte) ([]gcs.Envelope, error) {
	r := codec.Reader(body)
	n := r.Count(minEnvelopeLen)
	envs := make([]gcs.Envelope, 0, n)
	for ; n > 0; n-- {
		envs = append(envs, readEnvelope(&r))
	}
	return envs, r.Err
}

// ---- control replies ----

// controlChunkSize bounds the reply bytes one frame carries, so a large
// reply (a checkpoint, a 2048-envelope tail) interleaves with — never
// stalls — the acks and other replies sharing its connection.
const controlChunkSize = 64 << 10

// replyFrames cuts the reply to control request id into frames: chunks
// while more than one chunk's worth remains, then the control-reply frame
// with the last piece.
func replyFrames(id uint64, reply []byte) []frame {
	frames := make([]frame, 0, len(reply)/controlChunkSize+1)
	rest := reply
	for ; len(rest) > controlChunkSize; rest = rest[controlChunkSize:] {
		eb := pooledBody()
		body := append(enc.AppendU64(eb.b, id), rest[:controlChunkSize]...)
		frames = append(frames, frame{kind: frameControlChunk, body: body, buf: eb})
	}
	eb := pooledBody()
	body := enc.AppendU64(enc.AppendU64(enc.AppendU64(eb.b, id), uint64(len(reply))), fnvSum64(reply))
	return append(frames, frame{kind: frameControlReply, body: append(body, rest...), buf: eb})
}

// replyParts holds, by request id, the chunks received so far of the
// control replies in flight on one connection. It dies with the connection:
// a reply cut off by a reconnect is answered again from its first byte.
type replyParts map[uint64][]byte

// add consumes one control-chunk or control-reply frame. done reports the
// final frame of the reply to request id: reply is then what the frames
// carried, or err says it does not have the length and hash its sender
// declared.
func (p replyParts) add(f frame) (id uint64, reply []byte, done bool, err error) {
	r := codec.Reader(f.body)
	id = r.U64()
	if f.kind == frameControlChunk {
		if r.Err == nil {
			p[id] = append(p[id], f.body[r.Off:]...)
		}
		return id, nil, false, r.Err
	}
	length, sum := r.U64(), r.U64()
	if r.Err != nil {
		return id, nil, false, r.Err
	}
	reply = append(p[id], f.body[r.Off:]...)
	delete(p, id)
	if uint64(len(reply)) != length || fnvSum64(reply) != sum {
		return id, nil, true, fmt.Errorf("wire: control reply corrupt (%d bytes arrived, %d sent, or their hashes differ)", len(reply), length)
	}
	return id, reply, true, nil
}

// fnvSum64 hashes a byte slice (FNV-1a); every control reply carries it
// so what the requester reassembled is checked before use.
func fnvSum64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ---- framing ----

// writePreamble sends the per-connection magic + version header.
func writePreamble(w io.Writer) error {
	b := append([]byte(Magic), 0, 0)
	binary.BigEndian.PutUint16(b[len(Magic):], Version)
	_, err := w.Write(b)
	return err
}

func readPreamble(r io.Reader) error {
	b := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if string(b[:len(Magic)]) != Magic {
		return errBadMagic
	}
	if v := binary.BigEndian.Uint16(b[len(Magic):]); v != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", v, Version)
	}
	return nil
}

// appendFrame appends the wire encoding of one length-prefixed frame:
// u32 length of the rest, u8 kind, u64 seq, body.
func appendFrame(b []byte, f frame) []byte {
	b = enc.AppendU32(b, uint32(1+8+len(f.body)))
	b = append(b, f.kind)
	b = enc.AppendU64(b, f.seq)
	return append(b, f.body...)
}

// writeFrame sends one frame. The scratch buffer holding the assembled
// bytes is pooled — steady-state sends do not allocate here.
func writeFrame(w io.Writer, f frame) error {
	eb := framePool.Get().(*encodeBuf)
	b := appendFrame(eb.b[:0], f)
	_, err := w.Write(b)
	eb.b = b
	framePool.Put(eb)
	return err
}

func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrameLen {
		return frame{}, fmt.Errorf("wire: bad frame length %d", n)
	}
	b, err := enc.ReadN(r, int(n))
	if err != nil {
		return frame{}, err
	}
	return frame{kind: b[0], seq: binary.BigEndian.Uint64(b[1:9]), body: b[9:]}, nil
}
