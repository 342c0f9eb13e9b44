package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"detmt/internal/ids"
)

// storageEvents returns n random events with extremes mixed in. Every
// field takes values at the edges of its type, so a storage layout that
// narrows, offsets or delta-encodes a field must get each of them back
// exactly. Exit events go only to threads that record nothing after
// them (the runtime's contract), so the full-scan hash references apply.
func storageEvents(rng *rand.Rand, n int) []Event {
	ats := []time.Duration{-1, -time.Hour, math.MinInt64, math.MaxInt64, 0}
	threads := []ids.ThreadID{0, 1, math.MaxUint64, 1 << 62, 1<<62 | 12345}
	syncs := []ids.SyncID{ids.NoSync, 0, 1 << 30, math.MinInt, math.MaxInt}
	mutexes := []ids.MutexID{ids.NoMutex, 0, 1 << 30, math.MinInt, math.MaxInt}
	args := []int64{0, -1, math.MinInt64, math.MaxInt64, 1 << 40}
	kinds := []Kind{KindAdmit, KindBarrier, 254, 255, 1 << 20, -1} // never Exit: these threads go on
	var at time.Duration
	exited := uint64(0)
	out := make([]Event, 0, n)
	for len(out) < n {
		switch r := rng.Intn(20); {
		case r == 0: // an extreme in every field
			out = append(out, Event{
				At:     ats[rng.Intn(len(ats))],
				Thread: threads[rng.Intn(len(threads))],
				Kind:   kinds[rng.Intn(len(kinds))],
				Sync:   syncs[rng.Intn(len(syncs))],
				Mutex:  mutexes[rng.Intn(len(mutexes))],
				Arg:    args[rng.Intn(len(args))],
			})
		case r == 1: // a thread's last event: Exit, on an id nothing reuses
			exited++
			out = append(out, Event{At: at, Thread: 1<<63 | ids.ThreadID(exited), Kind: KindExit, Sync: ids.NoSync, Mutex: ids.NoMutex})
		default: // the common shape: small ids, time moving forward
			at += time.Duration(rng.Intn(5000)) * time.Microsecond
			k := Kind(rng.Intn(int(KindBarrier) + 1))
			if k == KindExit {
				k = KindAdmit
			}
			out = append(out, Event{
				At:     at,
				Thread: ids.ThreadID(rng.Intn(40) + 1),
				Kind:   k,
				Sync:   ids.SyncID(rng.Intn(12) - 1),
				Mutex:  ids.MutexID(rng.Intn(20) - 1),
				Arg:    int64(rng.Intn(200) - 50),
			})
		}
	}
	return out
}

// refJSON renders events the way WriteJSON documents its format.
func refJSON(t *testing.T, events []Event) string {
	t.Helper()
	out := make([]jsonEvent, len(events))
	for i, e := range events {
		out[i] = jsonEvent{AtMicros: int64(e.At / time.Microsecond), Thread: uint64(e.Thread),
			Kind: e.Kind.String(), Sync: int(e.Sync), Mutex: int(e.Mutex), Arg: e.Arg}
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkStorage compares every read path of tr with a plain slice: all is
// everything recorded since the trace was created or seeded, seeded the
// events the seed stands for, and the retained events must be a suffix
// of all.
func checkStorage(t *testing.T, name string, tr *Trace, seeded, all []Event, retain int) {
	t.Helper()
	total := uint64(len(seeded) + len(all))
	if got := tr.TotalRecorded(); got != total {
		t.Fatalf("%s: TotalRecorded %d, want %d", name, got, total)
	}
	dropped := tr.Dropped()
	if dropped < uint64(len(seeded)) || dropped > total {
		t.Fatalf("%s: Dropped %d outside [%d, %d]", name, dropped, len(seeded), total)
	}
	kept := all[dropped-uint64(len(seeded)):]
	if got := tr.Len(); got != len(kept) {
		t.Fatalf("%s: Len %d, want %d (recorded %d, dropped %d)", name, got, len(kept), total, dropped)
	}
	switch {
	case retain == 0 && dropped != uint64(len(seeded)):
		t.Fatalf("%s: unlimited retention dropped %d events", name, dropped-uint64(len(seeded)))
	case retain > 0 && len(all) > 0 && len(kept) == 0:
		t.Fatalf("%s: retention %d kept nothing of %d events", name, retain, len(all))
	case retain > 0 && len(kept) > retain+8192:
		t.Fatalf("%s: retention %d kept %d events, more than a chunk beyond it", name, retain, len(kept))
	case retain > 0 && len(all) >= 4*retain+8192 && dropped == uint64(len(seeded)):
		t.Fatalf("%s: retention %d dropped nothing of %d events", name, retain, len(all))
	}

	got := tr.Events()
	if len(got) != len(kept) {
		t.Fatalf("%s: Events returned %d, want %d", name, len(got), len(kept))
	}
	for i := range kept {
		if got[i] != kept[i] {
			t.Fatalf("%s: event %d reads back %+v, recorded %+v", name, i, got[i], kept[i])
		}
	}

	pred := func(e Event) bool { return e.Kind.Decision() && e.Mutex != ids.NoMutex }
	var want []Event
	for _, e := range kept {
		if pred(e) {
			want = append(want, e)
		}
	}
	filtered := tr.Filter(pred)
	if len(filtered) != len(want) {
		t.Fatalf("%s: Filter returned %d, want %d", name, len(filtered), len(want))
	}
	for i := range want {
		if filtered[i] != want[i] {
			t.Fatalf("%s: filtered event %d reads back %+v, want %+v", name, i, filtered[i], want[i])
		}
	}

	for _, stop := range []int{0, 1, len(kept) / 2} {
		if stop >= len(kept) {
			continue
		}
		var seen []Event
		tr.Scan(func(e Event) bool {
			seen = append(seen, e)
			return len(seen) <= stop
		})
		if len(seen) != stop+1 {
			t.Fatalf("%s: Scan told to stop after %d events called fn %d times", name, stop+1, len(seen))
		}
		for i := range seen {
			if seen[i] != kept[i] {
				t.Fatalf("%s: Scan event %d is %+v, want %+v", name, i, seen[i], kept[i])
			}
		}
	}

	var s strings.Builder
	for _, e := range kept {
		s.WriteString(e.String())
		s.WriteByte('\n')
	}
	if tr.String() != s.String() {
		t.Fatalf("%s: String differs from the recorded events' rendering", name)
	}

	var js strings.Builder
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if js.String() != refJSON(t, kept) {
		t.Fatalf("%s: JSON export differs from the recorded events' rendering", name)
	}

	history := append(append([]Event(nil), seeded...), all...)
	if got, want := tr.DecisionHash(), refDecisionHash(history); got != want {
		t.Fatalf("%s: DecisionHash %016x, want %016x", name, got, want)
	}
	if got, want := tr.ConsistencyHash(), refConsistencyHash(history); got != want {
		t.Fatalf("%s: ConsistencyHash %016x, want %016x", name, got, want)
	}
}

// TestTraceStorageRoundTrip records random events and extreme values
// and checks every way of reading a trace back against the plain slice
// that was recorded: runs that cross many storage chunks, retention at
// one event, at about a chunk and unlimited (set before, during and
// after recording), a trace seeded with an exported hash state, and
// scans that stop early.
func TestTraceStorageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	all := storageEvents(rng, 20000)

	for _, retain := range []int{0, 1, 1024} {
		tr := New()
		tr.SetRetention(retain)
		for i, e := range all {
			tr.Record(e)
			if i == 0 || i == 1 || i == 1023 || i == 1024 || i == 5000 {
				checkStorage(t, "prefix", tr, nil, all[:i+1], retain)
			}
		}
		checkStorage(t, "whole run", tr, nil, all, retain)

		// A bound set mid-run trims what is already stored.
		mid := New()
		for _, e := range all[:len(all)/2] {
			mid.Record(e)
		}
		mid.SetRetention(retain)
		checkStorage(t, "bound set mid-run", mid, nil, all[:len(all)/2], retain)
		for _, e := range all[len(all)/2:] {
			mid.Record(e)
		}
		checkStorage(t, "bound set mid-run, recorded on", mid, nil, all, retain)
	}

	// Lifting a bound keeps what is retained and stops dropping.
	tr := New()
	tr.SetRetention(1)
	for _, e := range all[:3000] {
		tr.Record(e)
	}
	tr.SetRetention(0)
	before := tr.Dropped()
	for _, e := range all[3000:6000] {
		tr.Record(e)
	}
	if tr.Dropped() != before {
		t.Fatalf("unbounded again, yet Dropped went %d -> %d", before, tr.Dropped())
	}
	checkStorage(t, "bound lifted", tr, all[:before], all[before:6000], 0)

	// A seeded trace continues the hashes and stores only what follows.
	for _, cut := range []int{0, 1, 777, len(all) / 2} {
		donor := New()
		for _, e := range all[:cut] {
			donor.Record(e)
		}
		seeded := New()
		seeded.Record(all[len(all)-1]) // discarded by the seed
		seeded.SeedHashState(donor.ExportHashState())
		checkStorage(t, "seeded", seeded, all[:cut], nil, 0)
		for _, e := range all[cut:] {
			seeded.Record(e)
		}
		checkStorage(t, "seeded, recorded on", seeded, all[:cut], all[cut:], 0)
	}
}
