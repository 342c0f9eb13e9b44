// Package shard partitions the replicated object space across many
// independent replication groups — the scale-out move for when one
// sequencer group saturates (the open-loop harness put a single group's
// ceiling at a few thousand req/s; ROADMAP's millions of users need many
// groups). The shape is the Dynamo/Riak key-routed ring: a deterministic
// consistent-hash ring maps every key to exactly one group, each group
// runs the full deterministic-multithreading machinery unchanged, and a
// client-side router fans requests out by key.
//
// Determinism is the point: the ring is built from a seed and the group
// set alone (seeded virtual nodes, no randomness at construction), so
// every process that holds the same RingConfig computes the identical
// key→group mapping — there is no routing authority to ask. The config
// travels serialized under a versioned header whose trailing hash covers
// the canonical encoding; routers fetch it from any member, and two
// routers agree if and only if their headers carry the same version and
// hash.
//
// Cross-shard nested invocations do not get new machinery either: a peer
// shard registers as an external service behind the existing
// internal/backend boundary (see internal/server's gateway), so they
// inherit retry, circuit-breaker, and idempotency-keyed exactly-once
// semantics for free.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"strconv"

	"detmt/internal/enc"
	"detmt/internal/ids"
)

// GroupConfig names one replication group (shard) and how to reach it.
type GroupConfig struct {
	// ID is the shard's stable identity (0-based, unique). The ring
	// places virtual nodes by (seed, ID, vnode) alone, so adding or
	// removing OTHER groups never moves this group's points.
	ID int
	// Members maps each member replica id to the address of that
	// member's listener FOR THIS SHARD (a multi-tenant process has one
	// listener per hosted shard).
	Members map[ids.ReplicaID]string
	// Backend is the address of the external-service gateway serving
	// cross-shard nested calls INTO this group ("" when cross-shard
	// invocations are not wired).
	Backend string
}

// RingConfig is the full, serializable description of a sharded
// deployment: every router and every server process must hold an
// identical config (same Version, same Hash) or routing would fork.
type RingConfig struct {
	// Version is the config generation, carried in the serialized
	// header. Membership is static within one deployment today, so the
	// version only changes when an operator rolls a new config; routers
	// refuse to mix versions.
	Version uint64
	// Seed drives virtual-node placement. Same seed + same group set =
	// same ring, across processes and restarts.
	Seed uint64
	// VNodes is the number of virtual nodes per group (0: DefaultVNodes).
	// More vnodes smooth the per-group keyspace share at the cost of a
	// larger (still tiny) routing table.
	VNodes int
	// Groups are the shards, ascending ID.
	Groups []GroupConfig
}

// DefaultVNodes is the virtual-node count applied when RingConfig leaves
// VNodes at zero: enough that a 4..64-group ring's keyspace shares stay
// within a few percent of even.
const DefaultVNodes = 64

// normalize validates the config and returns a canonical copy (groups
// sorted ascending by ID, VNodes defaulted).
func (c RingConfig) normalize() (RingConfig, error) {
	if len(c.Groups) == 0 {
		return c, fmt.Errorf("shard: ring config has no groups")
	}
	if c.VNodes == 0 {
		c.VNodes = DefaultVNodes
	}
	if c.VNodes < 1 {
		return c, fmt.Errorf("shard: ring config needs at least one virtual node per group (got %d)", c.VNodes)
	}
	groups := append([]GroupConfig(nil), c.Groups...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].ID < groups[j].ID })
	for i, g := range groups {
		if g.ID < 0 {
			return c, fmt.Errorf("shard: negative group id %d", g.ID)
		}
		if i > 0 && groups[i-1].ID == g.ID {
			return c, fmt.Errorf("shard: duplicate group id %d", g.ID)
		}
	}
	c.Groups = groups
	return c, nil
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer. Both virtual-node placement and key hashing go through it, so
// the mapping quality does not depend on the caller's key distribution.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodePoint places virtual node v of group id on the ring.
func vnodePoint(seed uint64, id, v int) uint64 {
	return mix64(mix64(seed^(uint64(id)+1)<<32) + uint64(v) + 1)
}

// Ring is the compiled routing table: sorted virtual-node points, each
// owned by a group. Route is O(log(groups*vnodes)) and allocation-free.
type Ring struct {
	cfg    RingConfig
	points []ringPoint
}

type ringPoint struct {
	h   uint64
	idx int // index into cfg.Groups
}

// NewRing validates cfg and compiles the routing table.
func NewRing(cfg RingConfig) (*Ring, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	r := &Ring{cfg: cfg}
	r.points = make([]ringPoint, 0, len(cfg.Groups)*cfg.VNodes)
	for i, g := range cfg.Groups {
		for v := 0; v < cfg.VNodes; v++ {
			r.points = append(r.points, ringPoint{h: vnodePoint(cfg.Seed, g.ID, v), idx: i})
		}
	}
	// Equal points (vanishingly rare) tie-break by group index so the
	// compiled order — hence the mapping — is total and deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].idx < r.points[j].idx
	})
	return r, nil
}

// Config returns the canonical (sorted, defaulted) config the ring was
// compiled from.
func (r *Ring) Config() RingConfig { return r.cfg }

// Groups returns the shard count.
func (r *Ring) Groups() int { return len(r.cfg.Groups) }

// Route maps a key to the index (position in Config().Groups) of the
// group that owns it: the first virtual node clockwise from the key's
// hash.
func (r *Ring) Route(key uint64) int {
	h := mix64(key)
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].h >= h })
	if i == len(pts) {
		i = 0 // wrap past the highest point
	}
	return pts[i].idx
}

// ---- serialization ----
//
// The wire form is a versioned header followed by the canonical body:
//
//	magic "DTRG" | format u16 | hash u64 | body
//	body = version u64 | seed u64 | vnodes u32 | ngroups u32 | group...
//	group = id u32 | backend str | nmembers u32 | (member u32 | addr str)...
//
// The hash (FNV-1a 64 over the body bytes) is what lets two routers
// agree without comparing configs field by field: identical header
// (format, hash) + identical version ⇒ identical mapping. Members are
// encoded ascending, so semantically equal configs are byte-identical.

// ringMagic and ringFormat version the serialized form itself (distinct
// from RingConfig.Version, which versions the config *contents*).
var ringMagic = []byte("DTRG")

const ringFormat = uint16(1)

var (
	errTruncated = errors.New("shard: truncated ring config")
	ringCodec    = enc.Format{Name: "shard", Truncated: errTruncated}
)

// encodeBody emits the canonical body of a normalized config.
func encodeBody(c RingConfig) []byte {
	b := binary.BigEndian.AppendUint64(nil, c.Version)
	b = binary.BigEndian.AppendUint64(b, c.Seed)
	b = binary.BigEndian.AppendUint32(b, uint32(c.VNodes))
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.Groups)))
	for _, g := range c.Groups {
		b = binary.BigEndian.AppendUint32(b, uint32(g.ID))
		b = enc.AppendString16(b, g.Backend)
		members := make([]ids.ReplicaID, 0, len(g.Members))
		for id := range g.Members {
			members = append(members, id)
		}
		slices.Sort(members)
		b = binary.BigEndian.AppendUint32(b, uint32(len(members)))
		for _, id := range members {
			b = binary.BigEndian.AppendUint32(b, uint32(id))
			b = enc.AppendString16(b, g.Members[id])
		}
	}
	return b
}

// Hash returns the config's canonical hash — the agreement token
// carried in the serialized header.
func (c RingConfig) Hash() (uint64, error) {
	n, err := c.normalize()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(encodeBody(n))
	return h.Sum64(), nil
}

// Encode serializes the config under the versioned header.
func Encode(c RingConfig) ([]byte, error) {
	n, err := c.normalize()
	if err != nil {
		return nil, err
	}
	body := encodeBody(n)
	h := fnv.New64a()
	h.Write(body)
	out := append([]byte(nil), ringMagic...)
	out = binary.BigEndian.AppendUint16(out, ringFormat)
	out = binary.BigEndian.AppendUint64(out, h.Sum64())
	return append(out, body...), nil
}

// Decode parses a serialized ring config, verifying the header: magic,
// format, and the body hash. A blob whose hash does not match its body
// is corrupt (or was assembled from mixed configs) and is rejected.
func Decode(b []byte) (RingConfig, error) {
	var c RingConfig
	if len(b) < len(ringMagic)+2+8 {
		return c, fmt.Errorf("shard: ring config too short (%d bytes)", len(b))
	}
	if string(b[:len(ringMagic)]) != string(ringMagic) {
		return c, fmt.Errorf("shard: bad ring config magic")
	}
	r := ringCodec.Reader(b[len(ringMagic):])
	if format := r.U16(); format != ringFormat {
		return c, fmt.Errorf("shard: ring config format %d, want %d", format, ringFormat)
	}
	wantHash := r.U64()
	h := fnv.New64a()
	h.Write(r.B[r.Off:]) // the body: everything behind the header
	if got := h.Sum64(); got != wantHash {
		return c, fmt.Errorf("shard: ring config hash mismatch (header %016x, body %016x)", wantHash, got)
	}
	c.Version = r.U64()
	c.Seed = r.U64()
	c.VNodes = int(r.U32())
	for ngroups := r.Count(1); ngroups > 0; ngroups-- {
		g := GroupConfig{ID: int(r.U32()), Members: map[ids.ReplicaID]string{}}
		g.Backend = r.Str16()
		for nmem := r.Count(1); nmem > 0; nmem-- {
			id := ids.ReplicaID(r.U32())
			g.Members[id] = r.Str16()
		}
		c.Groups = append(c.Groups, g)
	}
	if r.Err != nil {
		return c, r.Err
	}
	if _, err := c.normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// VerifyAgreement decodes several serialized configs (e.g. one fetched
// from each member process) and requires them to agree — same format,
// same version, same hash. It returns the shared config. This is the
// router's admission rule: route only over a config every member serves
// identically, so no two routers can map one key to different groups.
func VerifyAgreement(blobs map[string][]byte) (RingConfig, error) {
	if len(blobs) == 0 {
		return RingConfig{}, fmt.Errorf("shard: no ring configs to verify")
	}
	var first RingConfig
	var firstFrom string
	var firstHash uint64
	for from, b := range blobs {
		c, err := Decode(b)
		if err != nil {
			return RingConfig{}, fmt.Errorf("shard: ring config from %s: %v", from, err)
		}
		h, err := c.Hash()
		if err != nil {
			return RingConfig{}, fmt.Errorf("shard: ring config from %s: %v", from, err)
		}
		if firstFrom == "" {
			first, firstFrom, firstHash = c, from, h
			continue
		}
		if h != firstHash || c.Version != first.Version {
			return RingConfig{}, fmt.Errorf(
				"shard: ring disagreement: %s serves version %d hash %016x, %s serves version %d hash %016x",
				firstFrom, first.Version, firstHash, from, c.Version, h)
		}
	}
	return first, nil
}

// ---- symmetric multi-tenant addressing ----

// OffsetAddr shifts the port of host:port by off — the address
// derivation rule of the symmetric multi-tenant layout (shard k of a
// process with base address A listens on port(A)+k).
func OffsetAddr(base string, off int) (string, error) {
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("shard: bad base address %q: %v", base, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("shard: base address %q has a non-numeric port", base)
	}
	np := p + off
	if np <= 0 || np > 65535 {
		return "", fmt.Errorf("shard: offset port %d out of range (base %q + %d)", np, base, off)
	}
	return net.JoinHostPort(host, strconv.Itoa(np)), nil
}

// SymmetricConfig derives the ring config of the symmetric multi-tenant
// layout from each member process's BASE (shard-0) address: shard k of
// member i listens on port(base_i)+k, and — when xshard is true — the
// gateway serving cross-shard nested calls INTO shard k is hosted by the
// lowest member id at port(base_lowest)+shards+k. Every process and
// every router derives this config from the same inputs, so they agree
// byte-for-byte (same Version, same Hash) without coordination.
func SymmetricConfig(version, seed uint64, vnodes, shards int, bases map[ids.ReplicaID]string, xshard bool) (RingConfig, error) {
	if shards < 1 {
		return RingConfig{}, fmt.Errorf("shard: need at least one shard (got %d)", shards)
	}
	if len(bases) == 0 {
		return RingConfig{}, fmt.Errorf("shard: no member base addresses")
	}
	lowest := ids.ReplicaID(0)
	for id := range bases {
		if lowest == 0 || id < lowest {
			lowest = id
		}
	}
	cfg := RingConfig{Version: version, Seed: seed, VNodes: vnodes}
	for k := 0; k < shards; k++ {
		g := GroupConfig{ID: k, Members: map[ids.ReplicaID]string{}}
		for id, base := range bases {
			addr, err := OffsetAddr(base, k)
			if err != nil {
				return RingConfig{}, err
			}
			g.Members[id] = addr
		}
		if xshard {
			addr, err := OffsetAddr(bases[lowest], shards+k)
			if err != nil {
				return RingConfig{}, err
			}
			g.Backend = addr
		}
		cfg.Groups = append(cfg.Groups, g)
	}
	return cfg, nil
}
