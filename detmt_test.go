package detmt

import (
	"strings"
	"testing"
	"time"

	"detmt/internal/vclock"
)

// pacedLeader returns a virtual clock paced against wall time with an
// unbounded horizon: the clock a deployment's sequencer runs.
func pacedLeader() *vclock.Virtual {
	v := vclock.NewVirtual()
	v.EnablePacing(true)
	return v
}

const counterSource = `
object Counter {
    monitor lock;
    field count;

    method add(n) {
        sync (lock) {
            count = count + n;
        }
    }

    method get() {
        var v = 0;
        sync (lock) {
            v = count;
        }
        return v;
    }
}
`

func TestClusterQuickstart(t *testing.T) {
	for _, sched := range Schedulers() {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			opts := Options{Source: counterSource, Scheduler: sched}
			if sched == PDS {
				opts.PDSRelaxed = true
			}
			cluster, err := NewCluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			var got Value
			cluster.Run(func(s *Session) {
				c := s.NewClient(1)
				for i := 0; i < 3; i++ {
					if _, _, err := c.Invoke("add", int64(i+1)); err != nil {
						t.Errorf("add: %v", err)
					}
				}
				v, lat, err := c.Invoke("get")
				if err != nil {
					t.Errorf("get: %v", err)
				}
				if lat <= 0 {
					t.Errorf("latency %v", lat)
				}
				got = v
			})
			if got != int64(6) {
				t.Fatalf("count %v, want 6", got)
			}
			if !cluster.Converged() {
				t.Fatal("replicas diverged")
			}
		})
	}
}

func TestClusterParallelClients(t *testing.T) {
	cluster, err := NewCluster(Options{Source: counterSource, Scheduler: PMAT})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(func(s *Session) {
		j := s.Join()
		for ci := 1; ci <= 5; ci++ {
			c := s.NewClient(ci)
			j.Go(func() {
				for k := 0; k < 4; k++ {
					if _, _, err := c.Invoke("add", int64(1)); err != nil {
						t.Errorf("add: %v", err)
					}
				}
			})
		}
		j.Wait()
	})
	if got := cluster.State(1)["count"]; got != int64(20) {
		t.Fatalf("count %v, want 20", got)
	}
	if cluster.ScheduleHash(1) != cluster.ScheduleHash(2) || cluster.ScheduleHash(2) != cluster.ScheduleHash(3) {
		t.Fatal("schedule hashes differ across replicas")
	}
	transfers, broadcasts, _ := cluster.Traffic()
	if transfers == 0 || broadcasts != 20 {
		t.Fatalf("traffic transfers=%d broadcasts=%d", transfers, broadcasts)
	}
}

func TestClusterCrashTolerance(t *testing.T) {
	cluster, err := NewCluster(Options{Source: counterSource, Scheduler: MAT})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(func(s *Session) {
		c := s.NewClient(1)
		if _, _, err := c.Invoke("add", int64(1)); err != nil {
			t.Errorf("add: %v", err)
		}
		cluster.Crash(3)
		if _, _, err := c.Invoke("add", int64(2)); err != nil {
			t.Errorf("post-crash add: %v", err)
		}
	})
	if got := cluster.State(1)["count"]; got != int64(3) {
		t.Fatalf("count %v", got)
	}
}

func TestClusterRunsInVirtualTime(t *testing.T) {
	cluster, err := NewCluster(Options{Source: counterSource})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Now()
	cluster.Run(func(s *Session) {
		s.Sleep(time.Hour) // an hour of virtual time
		if s.Now() < time.Hour {
			t.Error("virtual clock did not advance")
		}
	})
	if elapsed := time.Since(wall); elapsed > 5*time.Second {
		t.Fatalf("virtual hour took %v of real time", elapsed)
	}
}

func TestClusterOnPacedClock(t *testing.T) {
	// The same stack runs at wall pace on a paced leader clock, as a
	// deployment does. Durations are kept tiny.
	cluster, err := NewCluster(Options{
		Source:        counterSource,
		Scheduler:     MAT,
		Clock:         pacedLeader(),
		NetLatency:    100 * time.Microsecond,
		NestedLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cluster.Run(func(s *Session) {
		c := s.NewClient(1)
		for i := 0; i < 3; i++ {
			if _, _, err := c.Invoke("add", int64(2)); err != nil {
				t.Errorf("add: %v", err)
			}
		}
	})
	if got := cluster.State(1)["count"]; got != int64(6) {
		t.Fatalf("count %v", got)
	}
	if !cluster.Converged() {
		t.Fatal("replicas diverged on the paced clock")
	}
	// Run ends with a 2s drain sleep, paid in wall time; sanity-bound it.
	if elapsed := time.Since(start); elapsed < 2*time.Second || elapsed > 30*time.Second {
		t.Fatalf("paced run took %v, want the 2s drain and not much more", elapsed)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{}); err == nil {
		t.Fatal("missing source not rejected")
	}
	if _, err := NewCluster(Options{Source: "object X {"}); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := NewCluster(Options{Source: `object X { method a() { b(); } method b() { a(); } }`}); err == nil {
		t.Fatal("analysis error not surfaced")
	}
}

func TestAnalyzeFacade(t *testing.T) {
	rep, err := Analyze(counterSource)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Transformed, "scheduler.lock(#1, lock);") {
		t.Fatalf("transformed source:\n%s", rep.Transformed)
	}
	if len(rep.Syncs) != 2 {
		t.Fatalf("syncs %+v", rep.Syncs)
	}
	for _, s := range rep.Syncs {
		if !s.Announceable || s.AnnouncedAt != "method entry" {
			t.Fatalf("sync %+v, want announceable monitor field", s)
		}
	}
	if _, err := Analyze("not a program"); err == nil {
		t.Fatal("bad source not rejected")
	}
}

func TestTraceExports(t *testing.T) {
	cluster, err := NewCluster(Options{Source: counterSource, Scheduler: MAT})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(func(s *Session) {
		c := s.NewClient(1)
		if _, _, err := c.Invoke("add", int64(1)); err != nil {
			t.Errorf("add: %v", err)
		}
	})
	var js, html strings.Builder
	if err := cluster.WriteTrace(&js, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"lockacq"`) {
		t.Fatal("trace JSON missing grants")
	}
	if err := cluster.WriteTimeline(&html, 2, "demo"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "<svg") {
		t.Fatal("timeline missing SVG")
	}
}

func TestSessionGoAndNow(t *testing.T) {
	cluster, err := NewCluster(Options{Source: counterSource})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(func(s *Session) {
		ran := make(chan struct{})
		s.Go(func() {
			s.Sleep(time.Millisecond)
			close(ran)
		})
		s.Sleep(2 * time.Millisecond)
		select {
		case <-ran:
		default:
			t.Error("Session.Go goroutine did not run")
		}
		if s.Now() < 2*time.Millisecond {
			t.Errorf("session time %v", s.Now())
		}
	})
	if cluster.Now() < 2*time.Millisecond {
		t.Errorf("cluster time %v", cluster.Now())
	}
}
