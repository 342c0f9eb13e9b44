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
	"io"
	"slices"
	"sync"
	"time"

	"detmt/internal/core"
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

// lang.Value tags.
const (
	valNil     = byte(0)
	valInt     = byte(1)
	valBool    = byte(2)
	valMonitor = byte(3)
	valErr     = byte(4)
)

// maxFrameLen bounds a single frame (64 MiB) so a corrupt length prefix
// cannot trigger an unbounded allocation.
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

// ---- primitive append/read helpers ----

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errShortFrame
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// ---- origin ----

func appendOrigin(b []byte, o gcs.Origin) []byte {
	flag := byte(0)
	if o.IsClient {
		flag = 1
	}
	b = append(b, flag)
	b = appendI64(b, int64(o.Replica))
	return appendI64(b, int64(o.Client))
}

func (r *reader) origin() gcs.Origin {
	flag := r.u8()
	rep := r.i64()
	cl := r.i64()
	return gcs.Origin{Replica: ids.ReplicaID(rep), Client: ids.ClientID(cl), IsClient: flag != 0}
}

// ---- lang.Value ----

func appendValue(b []byte, v lang.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, valNil), nil
	case int64:
		return appendI64(append(b, valInt), x), nil
	case bool:
		n := int64(0)
		if x {
			n = 1
		}
		return appendI64(append(b, valBool), n), nil
	case lang.Monitor:
		return appendI64(append(b, valMonitor), int64(x)), nil
	case lang.ErrValue:
		return appendString(append(b, valErr), string(x)), nil
	default:
		return b, fmt.Errorf("wire: unencodable value type %T", v)
	}
}

func (r *reader) value() lang.Value {
	switch tag := r.u8(); tag {
	case valNil:
		return nil
	case valInt:
		return r.i64()
	case valBool:
		return r.i64() != 0
	case valMonitor:
		return lang.Monitor(r.i64())
	case valErr:
		return lang.ErrValue(r.str())
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown value tag %d", tag)
		}
		return nil
	}
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
		b = appendU64(b, uint64(x.Req))
		b = appendString(b, x.Method)
		b = appendU32(b, uint32(len(x.Args)))
		for _, a := range x.Args {
			if b, err = appendValue(b, a); err != nil {
				return b, err
			}
		}
		return b, nil
	case replica.Reply:
		b = append(b, tagReply)
		b = appendU64(b, uint64(x.Req))
		if b, err = appendValue(b, x.Value); err != nil {
			return b, err
		}
		return appendString(b, x.Err), nil
	case replica.NestedOutcome:
		b = append(b, tagNestedOutcome)
		b = appendU64(b, uint64(x.Req))
		b = appendI64(b, int64(x.N))
		b = append(b, byte(x.Status))
		if b, err = appendValue(b, x.Value); err != nil {
			return b, err
		}
		return appendString(b, x.Err), nil
	case replica.StateUpdate:
		b = append(b, tagStateUpdate)
		b = appendU64(b, x.UpToSeq)
		keys := make([]string, 0, len(x.Snapshot))
		for k := range x.Snapshot {
			keys = append(keys, k)
		}
		slices.Sort(keys) // deterministic bytes for identical snapshots
		b = appendU32(b, uint32(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			if b, err = appendValue(b, x.Snapshot[k]); err != nil {
				return b, err
			}
		}
		return b, nil
	case replica.Dummy:
		return appendU64(append(b, tagDummy), x.Seq), nil
	case replica.LSADecision:
		b = append(b, tagLSADecision)
		b = appendU64(b, x.Index)
		b = appendI64(b, int64(x.Event.Mutex))
		return appendU64(b, uint64(x.Event.Thread)), nil
	case string:
		return appendString(append(b, tagString), x), nil
	case member.Change:
		b = append(b, tagConfigChange)
		b = append(b, byte(x.Kind))
		b = appendI64(b, int64(x.ID))
		b = appendI64(b, int64(x.NewID))
		return appendString(b, x.Addr), nil
	default:
		return b, fmt.Errorf("wire: unencodable payload type %T", p)
	}
}

func (r *reader) payload() gcs.Payload {
	switch tag := r.u8(); tag {
	case tagNil:
		return nil
	case tagRequest:
		req := replica.Request{Req: ids.RequestID(r.u64()), Method: r.str()}
		n := int(r.u32())
		if r.err != nil || n > len(r.b) {
			r.fail()
			return nil
		}
		for i := 0; i < n; i++ {
			req.Args = append(req.Args, r.value())
		}
		return req
	case tagReply:
		return replica.Reply{Req: ids.RequestID(r.u64()), Value: r.value(), Err: r.str()}
	case tagNestedOutcome:
		return replica.NestedOutcome{
			Req:    ids.RequestID(r.u64()),
			N:      int(r.i64()),
			Status: replica.NestedStatus(r.u8()),
			Value:  r.value(),
			Err:    r.str(),
		}
	case tagStateUpdate:
		su := replica.StateUpdate{UpToSeq: r.u64(), Snapshot: map[string]lang.Value{}}
		n := int(r.u32())
		if r.err != nil || n > len(r.b) {
			r.fail()
			return nil
		}
		for i := 0; i < n; i++ {
			k := r.str()
			su.Snapshot[k] = r.value()
		}
		return su
	case tagDummy:
		return replica.Dummy{Seq: r.u64()}
	case tagLSADecision:
		return replica.LSADecision{Index: r.u64(), Event: core.LSAEvent{
			Mutex:  ids.MutexID(r.i64()),
			Thread: ids.ThreadID(r.u64()),
		}}
	case tagString:
		return r.str()
	case tagConfigChange:
		return member.Change{
			Kind:  member.ChangeKind(r.u8()),
			ID:    ids.ReplicaID(r.i64()),
			NewID: ids.ReplicaID(r.i64()),
			Addr:  r.str(),
		}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown payload tag %d", tag)
		}
		return nil
	}
}

// DecodePayload decodes a single payload from b (as produced by
// AppendPayload), returning the number of bytes consumed.
func DecodePayload(b []byte) (gcs.Payload, int, error) {
	r := &reader{b: b}
	p := r.payload()
	if r.err != nil {
		return nil, 0, r.err
	}
	return p, r.off, nil
}

// ---- envelope ----

// AppendEnvelope appends the binary encoding of env to b.
func AppendEnvelope(b []byte, env gcs.Envelope) ([]byte, error) {
	b = append(b, byte(env.Kind))
	b = appendU64(b, env.Seq)
	b = appendU64(b, env.View)
	b = appendU64(b, env.UID)
	b = appendOrigin(b, env.Origin)
	b = appendOrigin(b, env.From)
	b = appendOrigin(b, env.To)
	b = appendI64(b, int64(env.Stamp))
	b = appendU32(b, env.Class)
	return AppendPayload(b, env.Payload)
}

// decodeEnvelope reads one envelope from r.
func (r *reader) envelope() gcs.Envelope {
	env := gcs.Envelope{
		Kind:   gcs.EnvKind(r.u8()),
		Seq:    r.u64(),
		View:   r.u64(),
		UID:    r.u64(),
		Origin: r.origin(),
		From:   r.origin(),
		To:     r.origin(),
		Stamp:  time.Duration(r.i64()),
	}
	env.Class = r.u32()
	env.Payload = r.payload()
	return env
}

// DecodeEnvelope decodes a single envelope from b (as produced by
// AppendEnvelope), returning the number of bytes consumed.
func DecodeEnvelope(b []byte) (gcs.Envelope, int, error) {
	r := &reader{b: b}
	env := r.envelope()
	if r.err != nil {
		return gcs.Envelope{}, 0, r.err
	}
	return env, r.off, nil
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
	b := appendString(nil, name)
	b = appendU64(b, epoch)
	b = appendU32(b, uint32(len(origins)))
	for _, o := range origins {
		b = appendOrigin(b, o)
	}
	return appendString(b, group)
}

func parseHello(body []byte) (name string, epoch uint64, origins []gcs.Origin, group string, err error) {
	r := &reader{b: body}
	name = r.str()
	epoch = r.u64()
	n := int(r.u32())
	if r.err != nil || n > len(body) {
		return "", 0, nil, "", errShortFrame
	}
	for i := 0; i < n; i++ {
		origins = append(origins, r.origin())
	}
	group = r.str()
	return name, epoch, origins, group, r.err
}

// AppendBatch appends the body of a batch frame: a count and that many
// envelopes, handed to the receiver as one unit.
func AppendBatch(b []byte, envs []gcs.Envelope) ([]byte, error) {
	b = appendU32(b, uint32(len(envs)))
	var err error
	for _, e := range envs {
		if b, err = AppendEnvelope(b, e); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeBatch decodes a batch body (as produced by AppendBatch).
func DecodeBatch(body []byte) ([]gcs.Envelope, error) {
	r := &reader{b: body}
	n := int(r.u32())
	if r.err != nil || n > len(body) {
		return nil, errShortFrame
	}
	envs := make([]gcs.Envelope, 0, n)
	for i := 0; i < n; i++ {
		envs = append(envs, r.envelope())
	}
	return envs, r.err
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
		body := append(appendU64(eb.b, id), rest[:controlChunkSize]...)
		frames = append(frames, frame{kind: frameControlChunk, body: body, buf: eb})
	}
	eb := pooledBody()
	body := appendU64(appendU64(appendU64(eb.b, id), uint64(len(reply))), fnvSum64(reply))
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
	r := &reader{b: f.body}
	id = r.u64()
	if f.kind == frameControlChunk {
		if r.err == nil {
			p[id] = append(p[id], f.body[r.off:]...)
		}
		return id, nil, false, r.err
	}
	length, sum := r.u64(), r.u64()
	if r.err != nil {
		return id, nil, false, r.err
	}
	reply = append(p[id], f.body[r.off:]...)
	delete(p, id)
	if uint64(len(reply)) != length || fnvSum64(reply) != sum {
		return id, nil, true, fmt.Errorf("wire: control reply corrupt (%d bytes arrived, %d sent, or their hashes differ)", len(reply), length)
	}
	return id, reply, true, nil
}

// fnvSum64 hashes a byte slice (FNV-1a); every control reply carries it
// so what the requester reassembled is checked before use.
func fnvSum64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
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
	b = appendU32(b, uint32(1+8+len(f.body)))
	b = append(b, f.kind)
	b = appendU64(b, f.seq)
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
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return frame{}, err
	}
	return frame{kind: b[0], seq: binary.BigEndian.Uint64(b[1:9]), body: b[9:]}, nil
}
