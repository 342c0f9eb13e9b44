package backend

import (
	"bytes"
	"encoding/hex"
	"testing"

	"detmt/internal/lang"
)

// TestGoldenFrames pins the backend protocol's bytes — preamble, one invoke
// frame and two result frames — recorded before the byte reader and the
// lang.Value codec moved into a package shared with wire and recovery: the
// backend shares code with them, not frames.
func TestGoldenFrames(t *testing.T) {
	var pre bytes.Buffer
	if err := bkWritePreamble(&pre); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(pre.Bytes()), "4454424b0001"; got != want {
		t.Errorf("preamble drifted:\n  got  %s\n  want %s", got, want)
	}

	invoke, err := invokeBody("shard:g1/R2/7#1", lang.Monitor(5))
	if err != nil {
		t.Fatal(err)
	}
	okRes, err := resultBody(int64(-42), "")
	if err != nil {
		t.Fatal(err)
	}
	errRes, err := resultBody(lang.ErrValue("backend: unavailable"), "declined")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    bkFrame
		want string
	}{
		{"invoke", bkFrame{kind: bkInvoke, id: 0x0102030405060708, body: invoke}, "000000250101020304050607080000000f73686172643a67312f52322f372331030000000000000005"},
		{"result", bkFrame{kind: bkResult, id: 9, body: okRes}, "000000170200000000000000090001ffffffffffffffd600000000"},
		{"error result", bkFrame{kind: bkResult, id: 10, body: errRes}, "0000002f02000000000000000a0104000000146261636b656e643a20756e617661696c61626c65000000086465636c696e6564"},
	} {
		var buf bytes.Buffer
		if err := bkWriteFrame(&buf, c.f); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%s frame drifted:\n  got  %s\n  want %s", c.name, got, c.want)
		}
		back, err := bkReadFrame(&buf)
		if err != nil || back.kind != c.f.kind || back.id != c.f.id || !bytes.Equal(back.body, c.f.body) {
			t.Errorf("%s frame does not read back: %+v, %v", c.name, back, err)
		}
	}
	if key, arg, err := parseInvoke(invoke); err != nil || key != "shard:g1/R2/7#1" || arg != lang.Monitor(5) {
		t.Errorf("invoke body parses to (%q, %v, %v)", key, arg, err)
	}
	if v, errStr, err := parseResult(errRes); err != nil || v != lang.ErrValue("backend: unavailable") || errStr != "declined" {
		t.Errorf("error result body parses to (%v, %q, %v)", v, errStr, err)
	}
}
