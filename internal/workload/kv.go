package workload

import (
	"fmt"
	"strings"

	"detmt/internal/ids"
	"detmt/internal/lang"
)

// KVConfig parameterises the deterministic key/value store object that
// backs the HTTP facade (internal/kvapi). The store is the builtin map
// (mapget/mapput/mapdel) guarded by a fixed set of lock buckets: every
// key hashes onto bucket k % Buckets, and each method takes exactly one
// bucket lock, so earlysched classifies operations on distinct buckets
// into distinct conflict classes and replicas run them through
// concurrent lanes.
type KVConfig struct {
	// Buckets is the lock-bucket count B (default 64). The monitor
	// array is declared one slot LARGER than B: the classifier treats a
	// lock index spanning the whole array as unclassifiable, and the
	// double-mod index provably stays in [0, B-1].
	Buckets int
}

// DefaultKV returns the default facade store configuration.
func DefaultKV() KVConfig { return KVConfig{Buckets: 64} }

// The KV start methods.
const (
	KVGet = "kvget"
	KVPut = "kvput"
	KVDel = "kvdel"
)

// KVMaxToken bounds idempotency tokens: token records are stored under
// t*B + bucket, so t must keep that product inside int64 for any sane
// bucket count. Callers hash free-form token strings into [1, KVMaxToken).
const KVMaxToken = int64(1) << 50

// Map namespaces used by the generated source (the first argument of the
// map builtins): data holds key -> value, tokApplied marks a token as
// applied, tokPrev records the value the applied write replaced (only
// when it was non-null, so a null read-back is unambiguous).
const (
	kvNSData       = 0
	kvNSTokApplied = 1
	kvNSTokPrev    = 2
)

// KVSource generates the store object's source text.
//
// Writes have swap semantics — kvput/kvdel return the PREVIOUS value of
// the key — which makes exactly-once observable end to end: a retried
// tokenized PUT replays the recorded previous value, whereas a double
// apply would return the newly written one.
//
// Token dedup lives INSIDE the state machine (not in the client stub)
// because retried HTTP requests arrive as fresh request ids: the token
// record keyed t*B + bucket(k) is injective in t and congruent to the
// key's bucket, so it shares the key's lock bucket (keeping the method a
// single-lock-site, per-request-classifiable footprint) and distinct
// tokens never collide.
func KVSource(cfg KVConfig) string {
	b := cfg.Buckets
	if b <= 0 {
		b = DefaultKV().Buckets
	}
	var s strings.Builder
	s.WriteString("object KV {\n")
	// One spare slot: index range [0, B-1] must not span the array.
	fmt.Fprintf(&s, "    monitor cells[%d];\n", b+1)
	s.WriteString("    field state;\n\n")

	// bucket(k) as an inline expression: the double-mod keeps the
	// interval analysis (and the runtime) inside [0, B-1] even for
	// negative keys.
	bucket := func(k string) string { return fmt.Sprintf("(((%s %% %d) + %d) %% %d)", k, b, b, b) }

	fmt.Fprintf(&s, "    method %s(k, v, t) {\n", KVPut)
	s.WriteString("        var prev = null;\n")
	fmt.Fprintf(&s, "        sync (cells[%s]) {\n", bucket("k"))
	fmt.Fprintf(&s, "            var tk = (t * %d) + %s;\n", b, bucket("k"))
	s.WriteString("            if ((t > 0) && (mapget(1, tk) == 1)) {\n")
	s.WriteString("                prev = mapget(2, tk);\n")
	s.WriteString("            } else {\n")
	s.WriteString("                prev = mapget(0, k);\n")
	s.WriteString("                mapput(0, k, v);\n")
	s.WriteString("                if (t > 0) {\n")
	s.WriteString("                    mapput(1, tk, 1);\n")
	s.WriteString("                    if (prev != null) {\n")
	s.WriteString("                        mapput(2, tk, prev);\n")
	s.WriteString("                    }\n")
	s.WriteString("                }\n")
	s.WriteString("            }\n")
	s.WriteString("        }\n")
	s.WriteString("        return prev;\n")
	s.WriteString("    }\n\n")

	fmt.Fprintf(&s, "    method %s(k) {\n", KVGet)
	s.WriteString("        var v = null;\n")
	fmt.Fprintf(&s, "        sync (cells[%s]) {\n", bucket("k"))
	s.WriteString("            v = mapget(0, k);\n")
	s.WriteString("        }\n")
	s.WriteString("        return v;\n")
	s.WriteString("    }\n\n")

	fmt.Fprintf(&s, "    method %s(k, t) {\n", KVDel)
	s.WriteString("        var prev = null;\n")
	fmt.Fprintf(&s, "        sync (cells[%s]) {\n", bucket("k"))
	fmt.Fprintf(&s, "            var tk = (t * %d) + %s;\n", b, bucket("k"))
	s.WriteString("            if ((t > 0) && (mapget(1, tk) == 1)) {\n")
	s.WriteString("                prev = mapget(2, tk);\n")
	s.WriteString("            } else {\n")
	s.WriteString("                prev = mapget(0, k);\n")
	s.WriteString("                mapdel(0, k);\n")
	s.WriteString("                if (t > 0) {\n")
	s.WriteString("                    mapput(1, tk, 1);\n")
	s.WriteString("                    if (prev != null) {\n")
	s.WriteString("                        mapput(2, tk, prev);\n")
	s.WriteString("                    }\n")
	s.WriteString("                }\n")
	s.WriteString("            }\n")
	s.WriteString("        }\n")
	s.WriteString("        return prev;\n")
	s.WriteString("    }\n")
	s.WriteString("}\n")
	return s.String()
}

// KVBucket mirrors the generated source's bucket computation (for tests
// and metrics).
func KVBucket(cfg KVConfig, k int64) int64 {
	b := int64(cfg.Buckets)
	if b <= 0 {
		b = int64(DefaultKV().Buckets)
	}
	return ((k % b) + b) % b
}

// KVRouteKey maps a store key to its consistent-hash routing key. Every
// router into a KV deployment — the HTTP facade, the direct load
// generator — must use this same spread, or the two would disagree on
// which shard owns a key.
func KVRouteKey(k int64) uint64 {
	return uint64(k)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
}

// KVRequest draws one random facade operation: a GET with probability
// pGet, otherwise a tokenized PUT, over a key space of `keys` keys. It
// returns the routing key (what the consistent-hash ring routes on) plus
// the method and argument list — the shape of a Gen (see KVGen).
func KVRequest(rng *ids.RNG, keys int, pGet float64) (route uint64, method string, args []lang.Value) {
	if keys <= 0 {
		keys = 1024
	}
	k := int64(rng.Intn(keys))
	if rng.Bool(pGet) {
		return KVRouteKey(k), KVGet, []lang.Value{k}
	}
	t := int64(rng.Uint64()%uint64(KVMaxToken-1)) + 1
	return KVRouteKey(k), KVPut, []lang.Value{k, int64(rng.Intn(1 << 30)), t}
}
