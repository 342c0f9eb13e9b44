// Package recovery implements deterministic checkpointing for the
// replicated object: a checkpoint captures everything a restarted
// replica needs to resume the shared virtual schedule mid-stream — the
// object's field values, the virtual instant, the last applied
// total-order slot, and the incremental trace-hash state — at a
// scheduler-quiescent point, so every replica taking the checkpoint at
// the same slot produces bit-identical bytes.
//
// The package also keeps the per-replica ring of (slot, consistency
// hash) points that the divergence detector gossips between replicas:
// two replicas that executed the same schedule carry identical rings,
// and the first mismatching slot localises a divergence to a bounded
// window of the trace.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"detmt/internal/enc"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/ring"
	"detmt/internal/trace"
)

// Checkpoint is a quiescent-point snapshot of one replica. Two replicas
// that applied the same sequenced prefix encode byte-identical
// checkpoints (map keys are sorted), which the kill/rejoin tests rely
// on.
type Checkpoint struct {
	Seq       uint64        // last applied total-order slot
	VirtNow   time.Duration // virtual instant of the quiescent point
	Completed uint64        // client requests completed so far
	Fields    map[string]lang.Value
	Hashes    trace.HashState
	// LSAFed is the LSA decision watermark at the quiescent point: the
	// index of the last leader scheduling decision consumed (on the
	// leader, emitted). Quiescence means every emitted decision has been
	// consumed, so all members checkpoint the same value. Zero for
	// non-LSA schedulers.
	LSAFed uint64
	// LSADecs carries leader decisions pending at capture time. At a
	// checkpoint-eligible quiescent point the set is empty by
	// construction; the field exists so the codec stays complete if a
	// future capture site relaxes the quiescence requirement.
	LSADecs []LSADecRecord
}

// LSADecRecord is one LSA leader scheduling decision as persisted in a
// checkpoint (mirrors replica.LSADecision without importing it).
type LSADecRecord struct {
	Index  uint64
	Mutex  ids.MutexID
	Thread ids.ThreadID
}

// Codec: a self-contained deterministic binary format (magic, version,
// fixed-width big-endian integers, length-prefixed strings, sorted map
// keys; field values in internal/enc's lang.Value encoding). Deliberately
// independent of internal/wire's envelope codec — checkpoints persist to
// disk and must stay decodable across wire version bumps.
//
// v2 appended the LSA decision watermark and pending-decision list; v1
// checkpoints (no LSA section) still decode.
const ckptVersion = uint16(2)

var ckptMagic = [4]byte{'D', 'M', 'C', 'K'}

var (
	errBadMagic   = errors.New("recovery: not a checkpoint (bad magic)")
	errBadVersion = errors.New("recovery: unsupported checkpoint version")
	errTruncated  = errors.New("recovery: truncated checkpoint")

	ckptCodec = enc.Format{Name: "recovery", Truncated: errTruncated}
)

// Encode serialises the checkpoint. The output is a pure function of
// the checkpoint's logical content.
func (c *Checkpoint) Encode() ([]byte, error) {
	b := append([]byte(nil), ckptMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, ckptVersion)
	b = binary.BigEndian.AppendUint64(b, c.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(c.VirtNow))
	b = binary.BigEndian.AppendUint64(b, c.Completed)

	keys := make([]string, 0, len(c.Fields))
	for k := range c.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		var err error
		if b, err = ckptCodec.AppendValue(enc.AppendString(b, k), c.Fields[k]); err != nil {
			return nil, err
		}
	}

	h := c.Hashes
	b = binary.BigEndian.AppendUint64(b, h.Decision)
	b = binary.BigEndian.AppendUint64(b, h.Consistency)
	b = binary.BigEndian.AppendUint64(b, h.Total)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Chains)))
	for _, ch := range h.Chains {
		b = binary.BigEndian.AppendUint64(b, uint64(ch.Mutex))
		b = binary.BigEndian.AppendUint64(b, uint64(ch.Thread))
		b = binary.BigEndian.AppendUint64(b, ch.Hash)
	}
	b = binary.BigEndian.AppendUint64(b, c.LSAFed)
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.LSADecs)))
	for _, d := range c.LSADecs {
		b = binary.BigEndian.AppendUint64(b, d.Index)
		b = binary.BigEndian.AppendUint64(b, uint64(int64(d.Mutex)))
		b = binary.BigEndian.AppendUint64(b, uint64(d.Thread))
	}
	return b, nil
}

// Decode parses a checkpoint produced by Encode.
func Decode(b []byte) (*Checkpoint, error) {
	r := ckptCodec.Reader(b)
	if magic := r.Bytes(len(ckptMagic)); r.Err == nil && [4]byte(magic) != ckptMagic {
		return nil, errBadMagic
	}
	ver := r.U16()
	if r.Err == nil && (ver < 1 || ver > ckptVersion) {
		return nil, fmt.Errorf("%w: %d", errBadVersion, ver)
	}
	c := &Checkpoint{
		Seq:       r.U64(),
		VirtNow:   time.Duration(r.U64()),
		Completed: r.U64(),
		Fields:    map[string]lang.Value{},
	}
	for n := r.Count(1); n > 0; n-- {
		k := r.Str()
		c.Fields[k] = r.Value()
	}
	c.Hashes.Decision = r.U64()
	c.Hashes.Consistency = r.U64()
	c.Hashes.Total = r.U64()
	for n := r.Count(1); n > 0; n-- {
		c.Hashes.Chains = append(c.Hashes.Chains, trace.ChainState{
			Mutex:  ids.MutexID(r.I64()),
			Thread: ids.ThreadID(r.U64()),
			Hash:   r.U64(),
		})
	}
	if ver >= 2 {
		c.LSAFed = r.U64()
		for n := r.Count(1); n > 0; n-- {
			c.LSADecs = append(c.LSADecs, LSADecRecord{
				Index:  r.U64(),
				Mutex:  ids.MutexID(r.I64()),
				Thread: ids.ThreadID(r.U64()),
			})
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Off != len(b) {
		return nil, fmt.Errorf("recovery: %d trailing bytes", len(b)-r.Off)
	}
	return c, nil
}

// ---- disk persistence ----

const (
	ckptFile  = "checkpoint.bin"
	epochFile = "epoch"
)

// Save atomically persists the encoded checkpoint under dir
// (write-to-temp then rename), creating dir if needed. Returns the
// final path.
func Save(dir string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, ckptFile)
	tmp, err := os.CreateTemp(dir, ckptFile+".tmp*")
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return "", err
	}
	if err := os.Rename(name, final); err != nil {
		os.Remove(name)
		return "", err
	}
	return final, nil
}

// Load reads and decodes the checkpoint persisted under dir. A missing
// file is reported via os.IsNotExist on the returned error.
func Load(dir string) (*Checkpoint, []byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if err != nil {
		return nil, nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, nil, err
	}
	return c, data, nil
}

// NextEpoch bumps and persists the replica's restart-epoch counter under
// dir. Each process incarnation must present a strictly higher epoch in
// its transport handshake than any earlier incarnation, so peers can
// tell a restarted replica from a delayed duplicate of the dead one.
func NextEpoch(dir string) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, epochFile)
	var cur uint64
	if data, err := os.ReadFile(path); err == nil && len(data) >= 8 {
		cur = binary.BigEndian.Uint64(data[:8])
	}
	next := cur + 1
	tmp, err := os.CreateTemp(dir, epochFile+".tmp*")
	if err != nil {
		return 0, err
	}
	name := tmp.Name()
	buf := binary.BigEndian.AppendUint64(nil, next)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return 0, err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, err
	}
	return next, nil
}

// ---- in-memory manager ----

// SeqHash is one divergence-detection point: the consistency hash the
// replica's trace carried at the quiescent instant after applying slot
// Seq. All replicas capture points at the same slots (checkpoint
// boundaries), so the rings are directly comparable.
type SeqHash struct {
	Seq  uint64
	Hash uint64
}

// maxPoints bounds the gossip ring; at typical checkpoint intervals
// this covers minutes of history, far more than the gossip period.
const maxPoints = 64

// Manager holds a replica's latest checkpoint (serving peer fetches
// without re-encoding) and its divergence-point ring.
type Manager struct {
	mu      sync.Mutex
	dir     string // "" disables persistence
	latest  *Checkpoint
	encoded []byte
	takenAt time.Time
	points  *ring.Buffer[SeqHash]
}

// NewManager creates a manager persisting to dir ("" keeps checkpoints
// in memory only — the donor protocol still works).
func NewManager(dir string) *Manager {
	return &Manager{dir: dir, points: ring.New[SeqHash](maxPoints)}
}

// Commit installs c as the latest checkpoint: encodes it, persists it
// when a directory is configured, and records the matching divergence
// point.
func (m *Manager) Commit(c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	if m.dir != "" {
		if _, err := Save(m.dir, data); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.latest = c
	m.encoded = data
	m.takenAt = time.Now()
	m.pushPointLocked(SeqHash{Seq: c.Seq, Hash: c.Hashes.Consistency})
	m.mu.Unlock()
	return nil
}

// Latest returns the encoded latest checkpoint for serving a peer's
// fetch. ok is false when no checkpoint has been committed yet.
func (m *Manager) Latest() (data []byte, seq uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latest == nil {
		return nil, 0, false
	}
	return m.encoded, m.latest.Seq, true
}

// LatestCheckpoint returns the decoded latest checkpoint (nil if none).
func (m *Manager) LatestCheckpoint() *Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest
}

// TakenAt reports when the latest checkpoint was committed (zero time
// if none).
func (m *Manager) TakenAt() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.takenAt
}

func (m *Manager) pushPointLocked(p SeqHash) {
	if m.points.Len() > 0 && m.points.At(m.points.End()-1).Seq == p.Seq {
		return // checkpoint retaken at the same slot (idle cluster)
	}
	m.points.Push(p)
}

// Points returns a copy of the divergence-point ring, ascending by
// slot.
func (m *Manager) Points() []SeqHash {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.points.All()
}

// FirstMismatch compares two divergence-point rings at their common
// slots and returns the first slot whose hashes differ. ok is false
// when every common slot agrees (including when there is no overlap).
func FirstMismatch(a, b []SeqHash) (mine, theirs SeqHash, ok bool) {
	bySeq := make(map[uint64]uint64, len(b))
	for _, p := range b {
		bySeq[p.Seq] = p.Hash
	}
	for _, p := range a {
		if h, shared := bySeq[p.Seq]; shared && h != p.Hash {
			return p, SeqHash{Seq: p.Seq, Hash: h}, true
		}
	}
	return SeqHash{}, SeqHash{}, false
}

// Lag reports how far behind ring b is relative to ring a, in slots
// (0 when b has caught up to or passed a). Status surfaces it as the
// peer hash-gossip lag.
func Lag(a, b []SeqHash) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	last, peer := a[len(a)-1].Seq, b[len(b)-1].Seq
	if peer >= last {
		return 0
	}
	return last - peer
}
