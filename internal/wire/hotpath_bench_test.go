package wire

import (
	"io"
	"testing"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
)

// Hot-path microbenchmarks for the TCP send path: every sequenced
// message a replica emits goes through envFrame (payload encode) and
// writeFrame (length-prefixed framing). Under sustained traffic these
// run per message; their allocations are the transport's steady-state
// garbage.

func benchEnvelope() gcs.Envelope {
	return gcs.Envelope{
		Kind:   1,
		Seq:    42,
		UID:    7,
		Origin: gcs.Origin{Replica: 1},
		From:   gcs.Origin{Replica: 1},
		To:     gcs.Origin{Replica: 2},
		Payload: replica.Request{
			Req:    ids.MakeRequestID(3, 9),
			Method: "transfer",
			Args:   []lang.Value{int64(100), int64(7)},
		},
	}
}

func BenchmarkHotPathWireEncode(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := envFrame([]gcs.Envelope{env})
		if err != nil {
			b.Fatal(err)
		}
		if err := writeFrame(io.Discard, f); err != nil {
			b.Fatal(err)
		}
		releaseFrameBody(f)
	}
}

func BenchmarkHotPathWireFrame(b *testing.B) {
	body := make([]byte, 128)
	f := frame{kind: frameBatch, seq: 1, body: body}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrame(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
}
