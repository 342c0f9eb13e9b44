package server

import (
	"errors"
	"fmt"
	"testing"

	"detmt/internal/gcs"
)

// scriptedTail is closeTail's world without sockets: what the donor has
// delivered, what the live stream has buffered here, the heartbeats
// received, and a script that moves the three along — step[i] runs during
// fetch number i (0-based), after the donor read its log and before the
// answer "arrives", which is when a heartbeat has to land to count.
type scriptedTail struct {
	donorNext uint64 // the donor has delivered every slot below this
	trimmed   uint64 // ... and retains none below this
	buffer    []uint64
	beats     uint64
	owed      bool
	fetchErr  error
	step      map[int]func(*scriptedTail)
	fetches   int
	pauses    int
}

func (w *scriptedTail) fetch(from uint64) ([]gcs.Envelope, bool, bool, error) {
	defer func() {
		if f := w.step[w.fetches]; f != nil {
			f(w)
		}
		w.fetches++
	}()
	if w.fetchErr != nil {
		return nil, false, false, w.fetchErr
	}
	if from < w.trimmed {
		return nil, false, false, nil
	}
	var envs []gcs.Envelope
	for s := from; s < w.donorNext && len(envs) < 2; s++ { // two per batch, to see "more"
		envs = append(envs, gcs.Envelope{Kind: gcs.EnvSequenced, Seq: s})
	}
	return envs, from+uint64(len(envs)) < w.donorNext, true, nil
}

func (w *scriptedTail) buffered() (uint64, int) {
	if len(w.buffer) == 0 {
		return 0, 0
	}
	return w.buffer[0], len(w.buffer)
}

func (w *scriptedTail) heartbeats() uint64 { return w.beats }
func (w *scriptedTail) fanOutOwed() bool   { return w.owed }
func (w *scriptedTail) pause()             { w.pauses++ }

func slots(envs []gcs.Envelope) string {
	var out []uint64
	for _, e := range envs {
		out = append(out, e.Seq)
	}
	return fmt.Sprint(out)
}

// TestCloseTailWaitsForTheLiveStream is the rejoin race without sockets: a
// checkpoint at slot 9, a donor that has delivered nothing past it, and the
// sequencer's link to this process still in reconnect backoff when the first
// poll comes back empty.
func TestCloseTailWaitsForTheLiveStream(t *testing.T) {
	t.Run("the link comes up after the first empty poll", func(t *testing.T) {
		w := &scriptedTail{donorNext: 10, owed: true, step: map[int]func(*scriptedTail){
			// Fetch 0 finds an empty tail, an empty buffer and no heartbeat —
			// the state the rejoiner used to call complete. The sequencer then
			// assigns 10 and 11 with this process still marked crashed. During
			// fetch 1 they are in flight at the donor (not delivered, so in no
			// tail) when the link comes up and a heartbeat lands; a pause later
			// the donor has delivered them.
			1: func(w *scriptedTail) { w.beats++; w.donorNext = 12 },
		}}
		tail, err := closeTail(10, w)
		if err != nil || slots(tail) != "[10 11]" {
			t.Fatalf("tail %s, err %v; want [10 11]", slots(tail), err)
		}
		if w.fetches != 3 || w.pauses != 2 {
			t.Fatalf("%d fetches, %d pauses; want the heartbeat's round plus one more fetch a pause later", w.fetches, w.pauses)
		}
	})

	t.Run("a heartbeat from before the fetch proves nothing", func(t *testing.T) {
		w := &scriptedTail{donorNext: 10, owed: true, beats: 5, step: map[int]func(*scriptedTail){
			3: func(w *scriptedTail) { w.beats++ },
		}}
		if _, err := closeTail(10, w); err != nil {
			t.Fatal(err)
		}
		if w.fetches != 5 {
			t.Fatalf("closed after %d fetches; want 5 (the heartbeat lands during the fourth)", w.fetches)
		}
	})

	t.Run("buffered slots close the tail once it reaches them", func(t *testing.T) {
		w := &scriptedTail{donorNext: 12, owed: true, step: map[int]func(*scriptedTail){
			// The live stream delivers 14 and 15 while the donor is at 11.
			0: func(w *scriptedTail) { w.buffer = []uint64{14, 15} },
			2: func(w *scriptedTail) { w.donorNext = 14 },
		}}
		tail, err := closeTail(10, w)
		if err != nil || slots(tail) != "[10 11 12 13]" {
			t.Fatalf("tail %s, err %v; want [10 11 12 13]", slots(tail), err)
		}
	})

	t.Run("a learner's empty buffer waits for its promotion", func(t *testing.T) {
		w := &scriptedTail{donorNext: 10, step: map[int]func(*scriptedTail){
			0: func(w *scriptedTail) { w.beats++ }, // not owed fan-out: means nothing yet
			2: func(w *scriptedTail) { w.owed = true },
			4: func(w *scriptedTail) { w.beats++ },
		}}
		if _, err := closeTail(10, w); err != nil {
			t.Fatal(err)
		}
		if w.fetches != 6 {
			t.Fatalf("closed after %d fetches; want 6", w.fetches)
		}
	})

	t.Run("failures restart recovery", func(t *testing.T) {
		if _, err := closeTail(10, &scriptedTail{donorNext: 40, trimmed: 20}); err == nil {
			t.Error("a trimmed slot did not fail the attempt")
		}
		boom := errors.New("boom")
		if _, err := closeTail(10, &scriptedTail{fetchErr: boom}); !errors.Is(err, boom) {
			t.Errorf("fetch error came back as %v", err)
		}
		w := &scriptedTail{donorNext: 10, owed: true}
		if _, err := closeTail(10, w); err == nil || w.fetches != gapHealRounds+1 {
			t.Errorf("a link that never comes up: err %v after %d fetches", err, w.fetches)
		}
	})
}
