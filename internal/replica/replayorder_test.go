package replica

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

// TestReplayEqualInstants pins how a replay applies log entries that carry
// one delivery instant: in log order, each once every thread the entries
// before it started has blocked, and at the entry's offset from the first.
// Four requests share one instant; two nested outcomes, in reverse thread
// order, and a fifth request share another 2ms later. The replay starts at
// 5ms. The admissions, nested resumes (in thread order, after the
// same-instant admission), exits, schedule hashes and state of each run
// are pinned.
func TestReplayEqualInstants(t *testing.T) {
	req := func(c ids.ClientID) ids.RequestID { return ids.MakeRequestID(c, 1) }
	entry := func(at time.Duration, seq uint64, p gcs.Payload) LogEntry {
		return LogEntry{At: at, Msg: gcs.Message{Seq: seq, Origin: gcs.Origin{Client: 1, IsClient: true}, UID: seq, Payload: p}}
	}
	ms := time.Millisecond
	log := []LogEntry{
		entry(101*ms, 1, Request{Req: req(1), Method: "echoNested", Args: []lang.Value{int64(1)}}),
		entry(101*ms, 2, Request{Req: req(2), Method: "deposit", Args: []lang.Value{int64(0), int64(5)}}),
		entry(101*ms, 3, Request{Req: req(3), Method: "echoNested", Args: []lang.Value{int64(3)}}),
		entry(101*ms, 4, Request{Req: req(4), Method: "deposit", Args: []lang.Value{int64(0), int64(7)}}),
		entry(103*ms, 5, NestedOutcome{Req: req(3), N: 1, Value: int64(40)}),
		entry(103*ms, 6, NestedOutcome{Req: req(1), N: 1, Value: int64(20)}),
		entry(103*ms, 7, Request{Req: req(5), Method: "slow", Args: []lang.Value{int64(0)}}),
	}
	res := analysis.MustAnalyze(lang.MustParse(bankSrc))
	for _, c := range []struct {
		kind SchedulerKind
		want string
	}{
		{KindSAT, "5ms C1 admit; 5ms C2 admit; 5ms C3 admit; 5ms C4 admit; 6ms C2 exit; 7ms C4 exit; 7ms C5 admit; " +
			"17ms C5 exit; 17ms C1 nestedend; 17ms C1 exit; 17ms C3 nestedend; 17ms C3 exit; " +
			"consistency 5259660ff5c60287 decisions 3256d960223d09c7 total 12"},
		{KindMAT, "5ms C1 admit; 5ms C2 admit; 5ms C3 admit; 5ms C4 admit; 6ms C2 exit; 7ms C4 exit; 7ms C5 admit; " +
			"7ms C1 nestedend; 7ms C1 exit; 7ms C3 nestedend; 7ms C3 exit; 17ms C5 exit; " +
			"consistency 5259660ff5c60287 decisions 8bd739abe510b707 total 12"},
	} {
		t.Run(string(c.kind), func(t *testing.T) {
			v := vclock.NewVirtual()
			var r *Replica
			done := make(chan struct{})
			v.Go(func() {
				defer close(done)
				v.Sleep(5 * ms)
				r = Replay(v, res, c.kind, 4, log)
				r.Instance().SetField("total", int64(0))
				v.Sleep(time.Second) // let the replay finish
			})
			<-done
			var b strings.Builder
			tr := r.Runtime().Trace()
			for _, e := range tr.Filter(func(e trace.Event) bool {
				return e.Kind == trace.KindAdmit || e.Kind == trace.KindNestedEnd || e.Kind == trace.KindExit
			}) {
				fmt.Fprintf(&b, "%v %v %v; ", e.At, ids.RequestID(e.Thread).Client(), e.Kind)
			}
			fmt.Fprintf(&b, "consistency %016x decisions %016x total %v", tr.ConsistencyHash(), tr.DecisionHash(), r.Instance().Snapshot()["total"])
			if got := b.String(); got != c.want {
				t.Fatalf("replay of equal instants:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
