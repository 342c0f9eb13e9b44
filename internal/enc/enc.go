// Package enc holds the one big-endian byte reader and the one lang.Value
// encoding that detmt's binary formats share: the wire codec, the backend
// protocol, checkpoints and the shard-ring blob. Each format keeps its own
// magic, version, layout and error text (a Format names it); they share
// code here, never bytes on a connection or in a file.
package enc

import (
	"encoding/binary"
	"fmt"
	"io"

	"detmt/internal/lang"
)

// Format names one binary format in the errors its codec reports.
type Format struct {
	// Name prefixes the errors about values, as in "wire: unknown value
	// tag 9".
	Name string
	// Truncated is what a read past the end of the input reports.
	Truncated error
}

// ---- appending ----

func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func AppendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }

// AppendString appends s behind a u32 length.
func AppendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// AppendString16 appends s behind a u16 length (the shard-ring blob's
// strings; s must be shorter than 64 KiB).
func AppendString16(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
}

// lang.Value tags. nil is the tag alone; int, bool and monitor carry an
// i64; an error value carries a string.
const (
	valNil     = byte(0)
	valInt     = byte(1)
	valBool    = byte(2)
	valMonitor = byte(3)
	valErr     = byte(4)
)

// AppendValue appends the encoding of v, or reports a value outside the
// lang.Value domain.
func (f *Format) AppendValue(b []byte, v lang.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, valNil), nil
	case int64:
		return AppendI64(append(b, valInt), x), nil
	case bool:
		n := int64(0)
		if x {
			n = 1
		}
		return AppendI64(append(b, valBool), n), nil
	case lang.Monitor:
		return AppendI64(append(b, valMonitor), int64(x)), nil
	case lang.ErrValue:
		return AppendString(append(b, valErr), string(x)), nil
	default:
		return b, fmt.Errorf("%s: unencodable value type %T", f.Name, v)
	}
}

// ---- reading ----

// Reader reads fields off the front of B. The first read that fails sets
// Err — a read past the end to the format's Truncated error — and from
// then on every read returns zero, so a decoder reads a whole structure
// and checks Err once.
type Reader struct {
	B   []byte
	Off int
	Err error
	f   *Format
}

// Reader starts reading b.
func (f *Format) Reader(b []byte) Reader { return Reader{B: b, f: f} }

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = r.f.Truncated
	}
}

func (r *Reader) U8() byte {
	if r.Err != nil || r.Off+1 > len(r.B) {
		r.fail()
		return 0
	}
	v := r.B[r.Off]
	r.Off++
	return v
}

func (r *Reader) U16() uint16 {
	if r.Err != nil || r.Off+2 > len(r.B) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.B[r.Off:])
	r.Off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if r.Err != nil || r.Off+4 > len(r.B) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.B[r.Off:])
	r.Off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.Err != nil || r.Off+8 > len(r.B) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.B[r.Off:])
	r.Off += 8
	return v
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes returns the next n bytes (aliasing B), or nil after a failure.
func (r *Reader) Bytes(n int) []byte {
	if r.Err != nil || n < 0 || n > len(r.B)-r.Off {
		r.fail()
		return nil
	}
	b := r.B[r.Off : r.Off+n]
	r.Off += n
	return b
}

// Str reads a string behind a u32 length.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U32()))) }

// Str16 reads a string behind a u16 length.
func (r *Reader) Str16() string { return string(r.Bytes(int(r.U16()))) }

// Count reads a u32 element count and fails unless the rest of the input
// can hold that many elements of at least min bytes each, so a decoder may
// size an allocation by the result.
func (r *Reader) Count(min int) int {
	n := int(r.U32())
	if r.Err == nil && (n < 0 || n > (len(r.B)-r.Off)/min) {
		r.fail()
	}
	if r.Err != nil {
		return 0
	}
	return n
}

// Value reads one lang.Value (see AppendValue).
func (r *Reader) Value() lang.Value {
	switch tag := r.U8(); tag {
	case valNil:
		return nil
	case valInt:
		return r.I64()
	case valBool:
		return r.I64() != 0
	case valMonitor:
		return lang.Monitor(r.I64())
	case valErr:
		return lang.ErrValue(r.Str())
	default:
		if r.Err == nil {
			r.Err = fmt.Errorf("%s: unknown value tag %d", r.f.Name, tag)
		}
		return nil
	}
}

// ReadStep is what ReadN allocates before any byte of a block has arrived.
const ReadStep = 64 << 10

// ReadN reads the n bytes a length prefix declared. It allocates one step
// up front and doubles its buffer only when the bytes that arrived fill it,
// so it holds at most twice what the stream delivered, or one step: a
// prefix that claims more than the stream holds costs what the stream
// holds, not the claim. A block of up to one step is one allocation of n
// bytes.
func ReadN(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, ReadStep))
	for got := 0; ; {
		m, err := io.ReadFull(r, b[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF // the stream ended inside the block
			}
			return nil, err
		}
		if got == n {
			return b, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, b)
		b = grown
	}
}
