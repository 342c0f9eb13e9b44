// Package member implements epoch-based dynamic membership for the
// replication group: configurations (epoch + voter list), membership
// changes (add / remove / replace) that travel the total order as
// ConfigChange payloads, and a slot-indexed tracker that applies every
// change at a deterministic activation slot so all replicas — including
// ones that join mid-stream — agree on exactly which members exist at
// every position of the order.
//
// The protocol is deliberately simple (one pending chain, activation a
// fixed slot distance after delivery) because the total order already
// does the hard part: a change is a payload like any other, so every
// replica observes the same changes at the same slots and computes the
// same configuration history without any extra agreement round.
package member

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"detmt/internal/ids"
)

// Member is one configured replica: its id and the address peers dial.
type Member struct {
	ID   ids.ReplicaID `json:"id"`
	Addr string        `json:"addr"`
}

// Config is one membership configuration. Epoch increments with every
// applied change; Slot is the total-order slot at which the config
// activated (0 for the initial configuration a cluster booted with).
// Members is the voter set, ascending by id — joiners ride as learners
// outside the config until their change's activation slot promotes
// them.
type Config struct {
	Epoch   uint64   `json:"epoch"`
	Slot    uint64   `json:"slot"`
	Members []Member `json:"members"`
}

// IDs returns the voter ids in ascending order.
func (c Config) IDs() []ids.ReplicaID {
	out := make([]ids.ReplicaID, len(c.Members))
	for i, m := range c.Members {
		out[i] = m.ID
	}
	return out
}

// Contains reports whether id is a voter of this config.
func (c Config) Contains(id ids.ReplicaID) bool {
	for _, m := range c.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// Addr returns the configured address of id ("" when absent).
func (c Config) Addr(id ids.ReplicaID) string {
	for _, m := range c.Members {
		if m.ID == id {
			return m.Addr
		}
	}
	return ""
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := c
	out.Members = append([]Member(nil), c.Members...)
	return out
}

// canonical appends the config's canonical byte encoding: epoch, slot,
// member count, then each member's id and address in ascending id
// order. Two configs with the same content produce identical bytes on
// every replica, so the FNV hash below is an agreement check.
func (c Config) canonical(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, c.Epoch)
	b = binary.BigEndian.AppendUint64(b, c.Slot)
	b = binary.BigEndian.AppendUint64(b, uint64(len(c.Members)))
	for _, m := range c.Members {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(m.ID)))
		b = binary.BigEndian.AppendUint64(b, uint64(len(m.Addr)))
		b = append(b, m.Addr...)
	}
	return b
}

// Hash returns the FNV-1a hash of the canonical encoding. Members of
// one cluster must agree on it at every epoch; status surfaces it so
// operators (and tests) can compare configurations across replicas at
// a glance.
func (c Config) Hash() uint64 {
	h := fnv.New64a()
	h.Write(c.canonical(nil))
	return h.Sum64()
}

// ChangeKind classifies a membership change.
type ChangeKind uint8

const (
	// Add introduces a new voter (it rides as a learner until the
	// activation slot).
	Add ChangeKind = 1
	// Remove retires a voter: it stops receiving sequenced traffic and
	// leaves every quorum at the activation slot.
	Remove ChangeKind = 2
	// Replace atomically swaps one voter for another (a rolling-upgrade
	// step): the incoming member rides as a learner, both sides flip at
	// the same activation slot, so the voter count never dips.
	Replace ChangeKind = 3
	// Pad is a no-op filler the proposer broadcasts after a real change
	// so the activation slot is reached even on an otherwise idle
	// cluster (activation triggers on *delivered* slots).
	Pad ChangeKind = 4
)

func (k ChangeKind) String() string {
	switch k {
	case Add:
		return "add"
	case Remove:
		return "remove"
	case Replace:
		return "replace"
	case Pad:
		return "pad"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Change is one membership change, carried through the total order as
// a ConfigChange payload (wire v7). ID is the subject: the new member
// (Add), the retiring member (Remove), or the outgoing member
// (Replace, with NewID/Addr describing the incoming one).
type Change struct {
	Kind  ChangeKind    `json:"kind"`
	ID    ids.ReplicaID `json:"id"`
	Addr  string        `json:"addr,omitempty"`
	NewID ids.ReplicaID `json:"new_id,omitempty"`
}

func (ch Change) String() string {
	switch ch.Kind {
	case Add:
		return fmt.Sprintf("add %v@%s", ch.ID, ch.Addr)
	case Remove:
		return fmt.Sprintf("remove %v", ch.ID)
	case Replace:
		return fmt.Sprintf("replace %v with %v@%s", ch.ID, ch.NewID, ch.Addr)
	case Pad:
		return "pad"
	}
	return fmt.Sprintf("change(%d)", uint8(ch.Kind))
}

// Joins returns the members the change introduces (the ones that ride
// as learners until activation).
func (ch Change) Joins() []Member {
	switch ch.Kind {
	case Add:
		return []Member{{ID: ch.ID, Addr: ch.Addr}}
	case Replace:
		return []Member{{ID: ch.NewID, Addr: ch.Addr}}
	}
	return nil
}

// Apply validates ch against c and returns the successor configuration
// (epoch+1, activating at slot). Pad changes return an error — they
// are fillers, not configs.
func (c Config) Apply(ch Change, slot uint64) (Config, error) {
	next := c.Clone()
	next.Epoch = c.Epoch + 1
	next.Slot = slot
	switch ch.Kind {
	case Add:
		if ch.ID <= 0 || ch.Addr == "" {
			return Config{}, fmt.Errorf("member: add needs a positive id and an address, got %v@%q", ch.ID, ch.Addr)
		}
		if c.Contains(ch.ID) {
			return Config{}, fmt.Errorf("member: %v is already a member", ch.ID)
		}
		next.Members = append(next.Members, Member{ID: ch.ID, Addr: ch.Addr})
	case Remove:
		if !c.Contains(ch.ID) {
			return Config{}, fmt.Errorf("member: %v is not a member", ch.ID)
		}
		if len(c.Members) == 1 {
			return Config{}, fmt.Errorf("member: refusing to remove the last member %v", ch.ID)
		}
		next.Members = withoutMember(next.Members, ch.ID)
	case Replace:
		if ch.NewID <= 0 || ch.Addr == "" {
			return Config{}, fmt.Errorf("member: replace needs a positive incoming id and address, got %v@%q", ch.NewID, ch.Addr)
		}
		if !c.Contains(ch.ID) {
			return Config{}, fmt.Errorf("member: %v is not a member", ch.ID)
		}
		if c.Contains(ch.NewID) {
			return Config{}, fmt.Errorf("member: %v is already a member", ch.NewID)
		}
		next.Members = withoutMember(next.Members, ch.ID)
		next.Members = append(next.Members, Member{ID: ch.NewID, Addr: ch.Addr})
	default:
		return Config{}, fmt.Errorf("member: cannot apply %s change", ch.Kind)
	}
	slices.SortFunc(next.Members, func(a, b Member) int { return cmp.Compare(a.ID, b.ID) })
	return next, nil
}

func withoutMember(ms []Member, id ids.ReplicaID) []Member {
	out := ms[:0]
	for _, m := range ms {
		if m.ID != id {
			out = append(out, m)
		}
	}
	return out
}
