package earlysched

import (
	"fmt"
	"sort"

	"detmt/internal/analysis"
	"detmt/internal/ids"
)

// token is one unit of conflict: a monitor, or a mutable plain field.
// Tokens order fields first (by name), then monitors (by id).
type token struct {
	field string // "" for a monitor
	mutex ids.MutexID
}

func (t token) less(o token) bool {
	if (t.field == "") != (o.field == "") {
		return t.field != ""
	}
	if t.field != o.field {
		return t.field < o.field
	}
	return t.mutex < o.mutex
}

// builder is the policy half of classification. The facts — which monitors
// each lock site can denote, which fields a method touches — come resolved
// in the method's analysis.Footprint; the builder decides which of them
// escalate a method to the global class, and merges the tokens one request
// may touch together (union-find).
type builder struct {
	parent map[token]token // union-find over tokens
}

func (b *builder) makeSet(k token) {
	if _, ok := b.parent[k]; !ok {
		b.parent[k] = k
	}
}

func (b *builder) find(k token) token {
	for b.parent[k] != k {
		b.parent[k] = b.parent[b.parent[k]] // path halving
		k = b.parent[k]
	}
	return k
}

func (b *builder) union(a, c token) {
	if ra, rc := b.find(a), b.find(c); ra != rc {
		b.parent[ra] = rc
	}
}

// components numbers the union-find components deterministically — tokens
// in order, components by first appearance — and returns each token's.
func (b *builder) components() map[token]int {
	keys := make([]token, 0, len(b.parent))
	for k := range b.parent {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	roots := map[token]int{}
	comp := make(map[token]int, len(keys))
	for _, k := range keys {
		root := b.find(k)
		idx, ok := roots[root]
		if !ok {
			idx = len(roots)
			roots[root] = idx
		}
		comp[k] = idx
	}
	return comp
}

// classifyMethod applies the escalation rules, in their order of
// precedence, and records the method's tokens.
func (b *builder) classifyMethod(params []string, fp *analysis.Footprint) *methodClass {
	global := func(format string, args ...interface{}) *methodClass {
		return &methodClass{global: true, reason: fmt.Sprintf(format, args...)}
	}
	if fp.RawLocking {
		return global("raw (unpaired) locking")
	}
	for i := range fp.Sites {
		if s := &fp.Sites[i]; s.Spontaneous {
			return global("spontaneous lock parameter %q", s.Param)
		}
	}
	if fp.WaitNotify {
		return global("uses wait/notify")
	}
	for i := range fp.Sites {
		switch s := &fp.Sites[i]; {
		case s.Top:
			return global("%s", s.Reason)
		case s.Whole():
			// The analysis learned nothing beyond the array bounds: the
			// request may lock anywhere, which carries no conflict
			// information — the definition of a global request.
			return global("lock index spans the whole array %s", s.Name)
		}
	}

	mc := &methodClass{params: params}
	mc.footprint, _ = fp.Monitors()
	for _, f := range fp.Fields {
		mc.tokens = append(mc.tokens, token{field: f})
	}
	for _, m := range mc.footprint {
		mc.tokens = append(mc.tokens, token{mutex: m})
	}
	for _, k := range mc.tokens {
		b.makeSet(k)
	}

	// A method whose entire footprint is one non-loop lock site indexed by
	// its arguments alone is classified per request: its tokens stay
	// separate components (unless other methods merge them), and the
	// concrete index picks the class at sequencing time.
	if len(fp.Fields) == 0 && len(fp.Sites) == 1 && fp.Sites[0].ParamOnly && !fp.Sites[0].InLoop {
		mc.site = &fp.Sites[0]
		return mc
	}
	for i := 1; i < len(mc.tokens); i++ {
		b.union(mc.tokens[0], mc.tokens[i])
	}
	return mc
}
