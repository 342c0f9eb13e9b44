package enc

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"detmt/internal/lang"
)

var errShort = errors.New("test: truncated")

var testFormat = Format{Name: "test", Truncated: errShort}

func TestRoundTrip(t *testing.T) {
	b := AppendU32(nil, 7)
	b = AppendU64(b, 1<<40)
	b = AppendI64(b, -3)
	b = AppendString(b, "u32-length")
	b = AppendString16(b, "u16-length")
	values := []lang.Value{nil, int64(-42), true, false, lang.Monitor(7), lang.ErrValue("boom")}
	for _, v := range values {
		var err error
		if b, err = testFormat.AppendValue(b, v); err != nil {
			t.Fatal(err)
		}
	}
	r := testFormat.Reader(b)
	if r.U32() != 7 || r.U64() != 1<<40 || r.I64() != -3 || r.Str() != "u32-length" || r.Str16() != "u16-length" {
		t.Fatalf("fixed fields did not round-trip (err %v)", r.Err)
	}
	for _, want := range values {
		if got := r.Value(); got != want {
			t.Fatalf("value %v round-tripped to %v", want, got)
		}
	}
	if r.Err != nil || r.Off != len(b) {
		t.Fatalf("err %v after %d of %d bytes", r.Err, r.Off, len(b))
	}
	if _, err := testFormat.AppendValue(nil, 3.5); err == nil || err.Error() != "test: unencodable value type float64" {
		t.Fatalf("AppendValue(3.5): %v", err)
	}
}

// TestFailureIsSticky: the first failed read names the format's own error,
// and every read after it returns zero without moving.
func TestFailureIsSticky(t *testing.T) {
	r := testFormat.Reader([]byte{0, 0, 0, 9, 1, 2})
	if s := r.Str(); s != "" || r.Err != errShort {
		t.Fatalf("string longer than the input: %q, %v", s, r.Err)
	}
	off := r.Off
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Bytes(1) != nil || r.Value() != nil || r.Count(1) != 0 {
		t.Fatal("a read after the failure returned data")
	}
	if r.Off != off || r.Err != errShort {
		t.Fatalf("reads after the failure moved to %d or changed the error to %v", r.Off, r.Err)
	}
	r = testFormat.Reader([]byte{9})
	if r.Value(); r.Err == nil || r.Err.Error() != "test: unknown value tag 9" {
		t.Fatalf("unknown tag: %v", r.Err)
	}
}

// TestCount: a declared count the rest of the input cannot hold is a
// truncation, so decoders may allocate by it.
func TestCount(t *testing.T) {
	in := append(AppendU32(nil, 3), make([]byte, 12)...)
	for min, want := range map[int]int{1: 3, 4: 3, 5: 0} {
		r := testFormat.Reader(in)
		if got := r.Count(min); got != want || (want == 0) != (r.Err == errShort) {
			t.Errorf("Count(%d) of 3 elements in 12 bytes = %d, err %v", min, got, r.Err)
		}
	}
}

// TestReadN reads blocks below, at and above one step back whole, and a
// block the stream ends inside as a truncation.
func TestReadN(t *testing.T) {
	for _, n := range []int{0, 1, ReadStep, ReadStep + 1, 3*ReadStep + 5} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got, err := ReadN(bytes.NewReader(append(want, 0xff)), n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: read %d bytes back, err %v", n, len(got), err)
		}
	}
	for _, c := range []struct {
		have, claim int
		want        error
	}{
		{0, 10, io.EOF},
		{5, 10, io.ErrUnexpectedEOF},
		{ReadStep, 2 * ReadStep, io.ErrUnexpectedEOF},
		{ReadStep + 1, 2 * ReadStep, io.ErrUnexpectedEOF},
	} {
		if _, err := ReadN(bytes.NewReader(make([]byte, c.have)), c.claim); err != c.want {
			t.Errorf("%d of %d bytes: err %v, want %v", c.have, c.claim, err, c.want)
		}
	}
}
