package harness

import (
	"fmt"
	"strings"
	"time"

	"detmt/internal/core"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/metrics"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

// fig2Src is the Fig. 2 micro-scenario: the primary locks, updates,
// unlocks, and then builds its reply (a long final computation); a
// second request wants the same mutex.
const fig2Src = `
object Fig2 {
    monitor x;
    field state;

    method primary() {
        sync (x) {
            state = state + 1;
            compute(1ms);
        }
        compute(10ms);
    }

    method secondary() {
        sync (x) {
            state = state + 10;
            compute(1ms);
        }
    }
}
`

// fig3Src is the Fig. 3 micro-scenario: the two requests lock disjoint
// mutexes; prediction should let them overlap completely.
const fig3Src = `
object Fig3 {
    monitor x;
    monitor y;
    field sx;
    field sy;

    method lockX() {
        compute(2ms);
        sync (x) {
            sx = sx + 1;
            compute(1ms);
        }
        compute(8ms);
    }

    method lockY() {
        sync (y) {
            sy = sy + 1;
            compute(1ms);
        }
    }
}
`

// microRun executes the two named methods of a source as two requests on
// one runtime and returns the trace and makespan.
func microRun(src string, sched core.Scheduler, methods ...string) (*trace.Trace, time.Duration) {
	res := analyzed(src)
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: sched, Static: res.Static})
	in := lang.NewInstance(res.Object, 0)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		for i, m := range methods {
			tid := ids.ThreadID(i + 1)
			method := m
			g.Add(1)
			rt.Submit(tid, res.Object.Lookup(method).ID, func(th *core.Thread) {
				if _, err := in.Exec(th, method, nil); err != nil {
					panic(fmt.Sprintf("harness: %s: %v", method, err))
				}
			}, g.Done)
		}
		g.Wait()
	})
	<-done
	return rt.Trace(), v.Now()
}

func grantOf(tr *trace.Trace, tid ids.ThreadID) time.Duration {
	at := time.Duration(-1)
	tr.Scan(func(e trace.Event) bool {
		if e.Kind == trace.KindLockAcq && e.Thread == tid {
			at = e.At
			return false
		}
		return true
	})
	return at
}

// Fig2 reproduces the last-lock handover comparison: plain MAT keeps the
// primary slot through the final computation; MAT with last-lock analysis
// hands it over right after the last unlock.
func Fig2() Result {
	var b strings.Builder
	b.WriteString("Locking pattern after releasing the last lock (paper Fig. 2)\n")
	b.WriteString("T1: sync(x){1ms} then 10ms final computation; T2: sync(x){1ms}\n")
	b.WriteString("Lanes: '=' running, '?' blocked on lock, letter = holding that mutex\n\n")
	type variant struct {
		label string
		sched core.Scheduler
	}
	for _, vnt := range []variant{
		{"(a) plain MAT — grant waits for primary termination", core.NewMAT(false)},
		{"(b) MAT + last-lock analysis — grant right after the last unlock", core.NewMAT(true)},
	} {
		tr, makespan := microRun(fig2Src, vnt.sched, "primary", "secondary")
		fmt.Fprintf(&b, "%s\n", vnt.label)
		b.WriteString(trace.Gantt{Width: 60}.Render(tr))
		fmt.Fprintf(&b, "T2 granted at %s ms, makespan %s ms\n\n",
			metrics.Ms(grantOf(tr, 2)), metrics.Ms(makespan))
	}
	return Result{ID: "fig2", Title: "Fig. 2 — last-lock handover", Text: b.String()}
}

// Fig3 reproduces the non-conflicting-mutex comparison: last-lock
// analysis alone still serialises T2 behind T1's unlock; full lock
// prediction (PMAT) grants immediately.
func Fig3() Result {
	var b strings.Builder
	b.WriteString("Locking pattern for non-conflicting mutexes (paper Fig. 3)\n")
	b.WriteString("T1: 2ms, sync(x){1ms}, 8ms; T2: sync(y){1ms} — x and y never conflict\n\n")
	type variant struct {
		label string
		sched core.Scheduler
	}
	for _, vnt := range []variant{
		{"(a) MAT + last-lock analysis — T2 still waits for T1's last unlock", core.NewMAT(true)},
		{"(b) PMAT lock prediction — T2's grant is immediate", core.NewPMAT()},
	} {
		tr, makespan := microRun(fig3Src, vnt.sched, "lockX", "lockY")
		fmt.Fprintf(&b, "%s\n", vnt.label)
		b.WriteString(trace.Gantt{Width: 60}.Render(tr))
		fmt.Fprintf(&b, "T2 granted at %s ms, makespan %s ms\n\n",
			metrics.Ms(grantOf(tr, 2)), metrics.Ms(makespan))
	}
	return Result{ID: "fig3", Title: "Fig. 3 — lock prediction", Text: b.String()}
}

// Fig2GrantTime runs the Fig. 2 micro-scenario and returns when the
// second request was granted the contended mutex (bench metric).
func Fig2GrantTime(lastLock bool) time.Duration {
	tr, _ := microRun(fig2Src, core.NewMAT(lastLock), "primary", "secondary")
	return grantOf(tr, 2)
}

// Fig3GrantTime runs the Fig. 3 micro-scenario and returns when the
// second request was granted its non-conflicting mutex (bench metric).
func Fig3GrantTime(pmat bool) time.Duration {
	var sched core.Scheduler
	if pmat {
		sched = core.NewPMAT()
	} else {
		sched = core.NewMAT(true)
	}
	tr, _ := microRun(fig3Src, sched, "lockX", "lockY")
	return grantOf(tr, 2)
}

// paperFooSrc is the code-transformation example of the paper's Fig. 4.
const paperFooSrc = `
object Paper {
    field myo;

    method foo(o) {
        if (o == myo) {
            sync (o) {
                compute(1ms);
            }
        } else {
            sync (myo) {
                compute(1ms);
            }
        }
    }
}
`

// Fig4 prints the static analysis and code-injection outcome on the
// paper's own example.
func Fig4() Result {
	res := analyzed(paperFooSrc)
	var b strings.Builder
	b.WriteString("Code transformation and injection (paper Fig. 4)\n\n")
	b.WriteString("--- source ---\n")
	b.WriteString(lang.Print(lang.MustParse(paperFooSrc)))
	b.WriteString("\n--- transformed ---\n")
	b.WriteString(lang.Print(res.Object))
	b.WriteString("\n--- classification ---\n")
	for _, rep := range res.Reports {
		for _, s := range rep.Syncs {
			kind := "spontaneous"
			if s.Announceable {
				kind = "announceable at " + s.AnnouncedAt
			}
			fmt.Fprintf(&b, "%s in %s: parameter %q, %s, loop=%v\n", s.SyncID, s.Method, s.Param, kind, s.Loop)
		}
		fmt.Fprintf(&b, "paths of %s: %v\n", rep.Method, rep.Paths)
	}
	return Result{ID: "fig4", Title: "Fig. 4 — code transformation", Text: b.String()}
}
