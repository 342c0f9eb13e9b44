package backend

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"

	"detmt/internal/enc"
)

// FuzzFrames reads arbitrary bytes as a backend connection's frames and
// parses every body the way both ends would: error or value, never a panic.
// A body that parsed survives its own encoder.
func FuzzFrames(f *testing.F) {
	for _, h := range []string{ // TestGoldenFrames
		"000000250101020304050607080000000f73686172643a67312f52322f372331030000000000000005",
		"000000170200000000000000090001ffffffffffffffd600000000",
		"0000002f02000000000000000a0104000000146261636b656e643a20756e617661696c61626c65000000086465636c696e6564",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// bkReadFrame allocates as the bytes arrive, so a length beyond the
		// input costs what the input holds: every prefix is read as it is.
		r := bytes.NewReader(data)
		for r.Len() >= 4 {
			fr, err := bkReadFrame(r)
			if err != nil {
				return
			}
			if key, arg, err := parseInvoke(fr.body); err == nil {
				body, err := invokeBody(key, arg)
				k2, a2, err2 := parseInvoke(body)
				if err != nil || err2 != nil || k2 != key || a2 != arg {
					t.Fatalf("invoke (%q, %v) does not survive its encoder: (%q, %v), %v %v", key, arg, k2, a2, err, err2)
				}
			}
			if v, errStr, err := parseResult(fr.body); err == nil {
				body, err := resultBody(v, errStr)
				v2, e2, err2 := parseResult(body)
				if err != nil || err2 != nil || v2 != v || e2 != errStr {
					t.Fatalf("result (%v, %q) does not survive its encoder: (%v, %q), %v %v", v, errStr, v2, e2, err, err2)
				}
			}
		}
	})
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix that claims the
// largest frame and is followed by the end of the stream costs one read
// step, not the 16 MiB it declared.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	prefix := enc.AppendU32(nil, maxBkFrame)
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := bkReadFrame(bytes.NewReader(prefix)); err == nil {
			t.Fatal("read a frame none of whose bytes arrived")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 2*enc.ReadStep {
		t.Fatalf("a %d-byte claim with nothing behind it allocated %d bytes, want at most %d", maxBkFrame, per, 2*enc.ReadStep)
	}
}
