// Package earlysched implements conflict-class early scheduling: the
// sequencer-side half of cross-request parallelism.
//
// The paper's static analysis (Sect. 4, package analysis) computes, per
// start method, one Footprint: which monitors every lock site can denote
// and which plain fields the method touches. Following the "Early
// Scheduling in Parallel State Machine Replication" direction (Alchieri,
// Dotti, Pedone — see PAPERS.md), where the class map derived from the
// analysis is the scheduler's input, this package holds the policy that
// turns those facts into *conflict classes* assigned at ordering time — it
// never looks at a statement itself: the sequencer classifies every
// request before stamping it, and the lane schedulers (core.MAT, core.PDS)
// dispatch distinct classes to concurrent per-class lanes on every replica
// that honours the stamp (replica.Config.EarlySched); a replica that does
// not admits everything to class 0, the same schedulers' one serial lane.
//
// Classification is sound by construction:
//
//   - Monitors and mutable plain fields are *tokens*. Every classifiable
//     method contributes the tokens it may touch; tokens that can appear
//     in the same request are merged (union-find) into *components*.
//     Distinct components have provably disjoint footprints, so they may
//     execute concurrently under any interleaving — the interleavings are
//     confluent and the stamped sequence alone fixes the commit order.
//   - A method is *unclassifiable* and escalates to the conservative
//     global class 0 when prediction cannot bound its footprint: raw
//     (unpaired) locking, wait/notify, a spontaneous lock parameter
//     (paper Sect. 4.2), a lock index that static analysis cannot narrow
//     below the whole monitor array, or any parameter the interval
//     analysis cannot bound. Class 0 serialises against everything via
//     the schedulers' merge barrier.
//   - A method whose only footprint is a single non-loop, argument-
//     derived lock site (and no fields) is classified *per request*: the
//     concrete index is evaluated against the request's arguments, so
//     different keys land in different classes (the hot-key case).
//
// Components are numbered in deterministic token order and folded onto
// the configured number of lanes; folding only merges classes (never
// splits a component), so it cannot break disjointness.
package earlysched

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"detmt/internal/analysis"
	"detmt/internal/ids"
	"detmt/internal/lang"
)

// GlobalClass is the conservative class: requests of class 0 conflict
// with everything and serialise the lanes through a merge barrier.
const GlobalClass uint32 = 0

// Classifier assigns conflict classes to requests of one analysed object.
// It is immutable after construction and safe for concurrent use; two
// classifiers built from the same source produce identical classes (the
// sequencer of every view must agree).
type Classifier struct {
	lanes   int
	methods map[string]*methodClass
	classOf map[token]uint32 // token -> lane class
}

// methodClass is the per-method classification summary.
type methodClass struct {
	global bool   // escalates to GlobalClass; reason for diagnostics
	reason string // why the method is global ("" otherwise)

	class uint32 // static class (methods without a per-request site)

	// A method with a site is classified per request: the arguments pick
	// the one monitor of its single lock site.
	site     *analysis.Site
	params   []string
	fallback uint32 // class when the index cannot be evaluated

	footprint []ids.MutexID // static possible-mutex set (sorted)
	tokens    []token       // footprint and fields, the units of conflict (sorted)
}

// New builds a classifier for the analysed object, folding conflict
// components onto the given number of lanes (clamped to at least 1).
func New(res *analysis.Result, lanes int) *Classifier {
	if lanes < 1 {
		lanes = 1
	}
	b := &builder{parent: map[token]token{}}
	c := &Classifier{
		lanes:   lanes,
		methods: make(map[string]*methodClass),
		classOf: make(map[token]uint32),
	}
	for i, m := range res.Object.Methods {
		c.methods[m.Name] = b.classifyMethod(m.Params, &res.Reports[i].Footprint)
	}
	// Fold the components onto the lanes.
	for k, idx := range b.components() {
		c.classOf[k] = 1 + uint32(idx%lanes)
	}
	// Resolve per-method classes now that components are numbered.
	for _, m := range res.Object.Methods {
		mc := c.methods[m.Name]
		if mc.global {
			continue
		}
		toks := mc.tokens
		switch {
		case mc.site != nil:
			// Fallback when the concrete index cannot be evaluated: the
			// request could be any token of the site's static range — one
			// class if they all agree, else the global class.
			mc.fallback = c.classOfTokens(toks)
		case len(toks) == 0:
			// No footprint at all (pure computation): conflicts with
			// nothing, any lane will do — pick one stably by name.
			h := fnv.New32a()
			h.Write([]byte(m.Name))
			mc.class = 1 + h.Sum32()%uint32(lanes)
		default:
			mc.class = c.classOf[toks[0]] // all one component by construction
		}
	}
	return c
}

// classOfTokens returns the common class of a token set, or GlobalClass
// if the tokens span several classes.
func (c *Classifier) classOfTokens(toks []token) uint32 {
	if len(toks) == 0 {
		return GlobalClass
	}
	cl := c.classOf[toks[0]]
	for _, k := range toks[1:] {
		if c.classOf[k] != cl {
			return GlobalClass
		}
	}
	return cl
}

// Lanes returns the number of lanes classes are folded onto.
func (c *Classifier) Lanes() int { return c.lanes }

// DummyClass is the reserved class for PDS dummy requests: a lane of its
// own, so pool-filling dummies neither join a real class nor trip the
// merge barrier.
func (c *Classifier) DummyClass() uint32 { return uint32(c.lanes) + 1 }

// Classify returns the conflict class of one request. Unknown methods and
// unevaluable dynamic sites degrade to the global class, never to a wrong
// one.
func (c *Classifier) Classify(method string, args []lang.Value) uint32 {
	mc := c.methods[method]
	if mc == nil || mc.global {
		return GlobalClass
	}
	if mc.site == nil {
		return mc.class
	}
	m, ok := mc.site.Monitor(mc.params, args)
	if !ok {
		return mc.fallback
	}
	return c.classOf[token{mutex: m}]
}

// Footprint returns the predicted lock footprint of one request: a sorted
// superset of every monitor the request can lock. ok is false for global
// (unbounded) requests. Requests in distinct non-global classes always
// have disjoint footprints — the property the lane schedulers rely on.
func (c *Classifier) Footprint(method string, args []lang.Value) (_ []ids.MutexID, ok bool) {
	mc := c.methods[method]
	if mc == nil || mc.global {
		return nil, false
	}
	if mc.site != nil {
		if m, ok := mc.site.Monitor(mc.params, args); ok {
			return []ids.MutexID{m}, true
		}
	}
	return mc.footprint, true
}

// GlobalReason reports why a method escalates to the global class ("" if
// it does not) — surfaced by diagnostics and the -early-sched walkthrough.
func (c *Classifier) GlobalReason(method string) string {
	mc := c.methods[method]
	if mc == nil {
		return "unknown method"
	}
	return mc.reason
}

// Describe renders the classification of every method, for logs and docs.
func (c *Classifier) Describe() string {
	names := make([]string, 0, len(c.methods))
	for n := range c.methods {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "conflict classes (%d lanes):\n", c.lanes)
	for _, n := range names {
		mc := c.methods[n]
		switch {
		case mc.global:
			fmt.Fprintf(&b, "  %-16s class 0 (global: %s)\n", n, mc.reason)
		case mc.site != nil:
			fmt.Fprintf(&b, "  %-16s per-request (index range [%d,%d], fallback class %d)\n", n, mc.site.Lo, mc.site.Hi, mc.fallback)
		default:
			fmt.Fprintf(&b, "  %-16s class %d\n", n, mc.class)
		}
	}
	return b.String()
}
