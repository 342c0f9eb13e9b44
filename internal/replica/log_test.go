package replica

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

var updateLog = flag.Bool("update", false, "rewrite testdata/log.golden from the current replicas")

// TestLogAndFailoverDataPinned pins what Log and FailoverData return, entry
// by entry (slot, origin, uid, class, payload and delivery instant), on
// every replica of two runs: a MAT primary that checkpoints every second
// completion with two passive backups, and a SAT group that never
// checkpoints and performs nested calls. The text is in
// testdata/log.golden; re-record it with -update only for a change that
// means to alter the replay log.
func TestLogAndFailoverDataPinned(t *testing.T) {
	var b strings.Builder
	dump := func(name string, c *cluster) {
		for id := ids.ReplicaID(1); int(id) <= len(c.reps); id++ {
			r := c.reps[id]
			fmt.Fprintf(&b, "%s %v Log\n", name, id)
			for _, e := range r.Log() {
				writeLogEntry(&b, e)
			}
			snapshot, tail := r.FailoverData()
			fmt.Fprintf(&b, "%s %v FailoverData snapshot %v\n", name, id, snapshot)
			for _, e := range tail {
				writeLogEntry(&b, e)
			}
		}
	}

	ckpt := newCluster(t, KindMAT, 3, func(cfg *Config) {
		if cfg.ID == 1 {
			cfg.CheckpointEvery = 2
		} else {
			cfg.Role = RoleBackup
		}
	})
	ckpt.drive(func() {
		client := NewClient(ckpt.v, ckpt.g, 1)
		for k := 0; k < 5; k++ {
			if _, _, err := client.Invoke("deposit", int64(k%8), int64(10)); err != nil {
				t.Errorf("deposit: %v", err)
			}
			ckpt.v.Sleep(time.Millisecond)
		}
	})
	dump("checkpointed", ckpt)

	plain := newCluster(t, KindSAT, 2, nil)
	plain.drive(func() {
		g := vclock.NewGroup(plain.v)
		for ci := 1; ci <= 3; ci++ {
			client := NewClient(plain.v, plain.g, ids.ClientID(ci))
			x := int64(ci)
			g.Go(func() {
				if _, _, err := client.Invoke("deposit", x, x*7); err != nil {
					t.Errorf("deposit: %v", err)
				}
				if _, _, err := client.Invoke("echoNested", x); err != nil {
					t.Errorf("echoNested: %v", err)
				}
			})
		}
		g.Wait()
	})
	dump("plain", plain)

	path := filepath.Join("testdata", "log.golden")
	if *updateLog {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

func writeLogEntry(b *strings.Builder, e LogEntry) {
	m := e.Msg
	fmt.Fprintf(b, "  seq=%d origin=%v uid=%d class=%d at=%v payload=%T%+v\n",
		m.Seq, m.Origin, m.UID, m.Class, e.At, m.Payload, m.Payload)
}
