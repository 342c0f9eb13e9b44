package member

import (
	"encoding/json"
	"testing"

	"detmt/internal/ids"
)

func cfg3() Config {
	return Config{Epoch: 0, Slot: 0, Members: []Member{
		{ID: 1, Addr: "h1:1"}, {ID: 2, Addr: "h2:1"}, {ID: 3, Addr: "h3:1"},
	}}
}

func TestConfigApply(t *testing.T) {
	c := cfg3()
	next, err := c.Apply(Change{Kind: Add, ID: 4, Addr: "h4:1"}, 100)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if next.Epoch != 1 || next.Slot != 100 || len(next.Members) != 4 || !next.Contains(4) {
		t.Fatalf("add produced %+v", next)
	}
	if len(c.Members) != 3 {
		t.Fatalf("Apply mutated the source config: %+v", c)
	}

	next, err = next.Apply(Change{Kind: Replace, ID: 1, NewID: 7, Addr: "h7:1"}, 200)
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if next.Epoch != 2 || next.Contains(1) || !next.Contains(7) || len(next.Members) != 4 {
		t.Fatalf("replace produced %+v", next)
	}
	if got := next.IDs(); got[len(got)-1] != 7 {
		t.Fatalf("members not sorted: %v", got)
	}

	next, err = next.Apply(Change{Kind: Remove, ID: 2}, 300)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if next.Contains(2) || len(next.Members) != 3 {
		t.Fatalf("remove produced %+v", next)
	}

	for _, bad := range []Change{
		{Kind: Add, ID: 2, Addr: "dup"},              // already a member
		{Kind: Add, ID: 9},                           // no address
		{Kind: Remove, ID: 42},                       // unknown
		{Kind: Replace, ID: 42, NewID: 9, Addr: "x"}, // unknown outgoing
		{Kind: Replace, ID: 1, NewID: 2, Addr: "x"},  // incoming already present
		{Kind: Pad}, // filler is not a config
	} {
		if _, err := cfg3().Apply(bad, 1); err == nil {
			t.Fatalf("Apply(%v) unexpectedly succeeded", bad)
		}
	}
	if _, err := (Config{Members: []Member{{ID: 1, Addr: "a"}}}).Apply(Change{Kind: Remove, ID: 1}, 1); err == nil {
		t.Fatal("removing the last member unexpectedly succeeded")
	}
}

func TestConfigHashAgreement(t *testing.T) {
	a := cfg3()
	b := cfg3()
	if a.Hash() != b.Hash() {
		t.Fatal("identical configs hash differently")
	}
	c, _ := a.Apply(Change{Kind: Add, ID: 4, Addr: "h4:1"}, 9)
	if c.Hash() == a.Hash() {
		t.Fatal("different configs share a hash")
	}
}

func TestTrackerStageAdvance(t *testing.T) {
	tr := NewTracker(cfg3(), 4)
	if got := tr.Advance(10); got != nil {
		t.Fatalf("idle Advance returned %v", got)
	}
	p, err := tr.Stage(Change{Kind: Add, ID: 4, Addr: "h4:1"}, 10)
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if p.ActivateSlot != 14 || p.Next.Epoch != 1 {
		t.Fatalf("staged %+v", p)
	}
	// Chained change applies on top of the pending one, not the active.
	p2, err := tr.Stage(Change{Kind: Remove, ID: 1}, 12)
	if err != nil {
		t.Fatalf("chained stage: %v", err)
	}
	if p2.Next.Epoch != 2 || !p2.Next.Contains(4) || p2.Next.Contains(1) {
		t.Fatalf("chained stage produced %+v", p2.Next)
	}
	if len(tr.Learners()) != 1 || tr.Learners()[0].ID != 4 {
		t.Fatalf("learners %v", tr.Learners())
	}

	if got := tr.Advance(13); got != nil {
		t.Fatalf("pre-activation Advance returned %v", got)
	}
	got := tr.Advance(16)
	if len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("Advance(16) = %+v", got)
	}
	if a := tr.Active(); a.Epoch != 2 || len(a.Members) != 3 {
		t.Fatalf("active %+v", a)
	}
	// Slot-indexed lookup: config at the relevant slot, not the newest.
	if c := tr.At(13); c.Epoch != 0 {
		t.Fatalf("At(13) = epoch %d", c.Epoch)
	}
	if c := tr.At(14); c.Epoch != 1 {
		t.Fatalf("At(14) = epoch %d", c.Epoch)
	}
	if c := tr.At(99); c.Epoch != 2 {
		t.Fatalf("At(99) = epoch %d", c.Epoch)
	}

	// Duplicate replay of an already-applied change is rejected, which
	// is what makes snapshot-seeded joiners idempotent under replay.
	if _, err := tr.Stage(Change{Kind: Add, ID: 4, Addr: "h4:1"}, 20); err == nil {
		t.Fatal("duplicate add staged without error")
	}
}

func TestTrackerSnapshotRoundTrip(t *testing.T) {
	tr := NewTracker(cfg3(), 4)
	if _, err := tr.Stage(Change{Kind: Add, ID: 4, Addr: "h4:1"}, 10); err != nil {
		t.Fatal(err)
	}
	tr.Advance(11)
	snap := tr.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	joiner := NewTrackerFromSnapshot(decoded, 4)
	if got := joiner.Advance(14); len(got) != 1 || got[0].Epoch != 1 || !got[0].Contains(4) {
		t.Fatalf("joiner Advance = %+v", got)
	}
	if joiner.Active().Hash() != tr.Advance(14)[0].Hash() {
		// Advance on tr at 14 activates the same config; hashes must agree.
		t.Fatal("joiner and donor disagree on the activated config hash")
	}
	if a := joiner.AddrOf(ids.ReplicaID(2)); a != "h2:1" {
		t.Fatalf("AddrOf(2) = %q", a)
	}
}

// TestGoldenConfigHash pins the configuration agreement hash that status
// reports and operators compare across replicas (recorded before the
// canonical encoding switched to encoding/binary's appenders).
func TestGoldenConfigHash(t *testing.T) {
	c, err := cfg3().Apply(Change{Kind: Replace, ID: 2, NewID: 4, Addr: "127.0.0.1:7424"}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg3().Hash(), uint64(0x3389535370411f29); got != want {
		t.Errorf("boot config hash %#x, want %#x", got, want)
	}
	if got, want := c.Hash(), uint64(0x92de23cd05eaa9e0); got != want {
		t.Errorf("epoch-1 config hash %#x, want %#x", got, want)
	}
}
