package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"detmt/internal/enc"
	"detmt/internal/lang"
)

// The backend protocol is deliberately independent of internal/wire (the
// replica transport): a backend is an *external* service, typically not
// even a detmt process, so its protocol must not drag the replication
// envelope along — it shares internal/enc's byte reader and lang.Value
// encoding with wire, no frame. Framing: a per-connection preamble (magic
// + version), then length-prefixed frames of u32 length, u8 kind, u64
// correlation id, body.
const (
	bkMagic   = "DTBK"
	bkVersion = uint16(1)

	// frame kinds
	bkInvoke       = byte(1) // string key, value arg
	bkResult       = byte(2) // u8 status (0 ok, 1 error), value, string err
	bkControl      = byte(3) // string command ("status", "chaos <cmd>")
	bkControlReply = byte(4) // raw bytes (JSON)

	// result statuses
	bkOK  = byte(0)
	bkErr = byte(1)

	// maxBkFrame bounds one frame (16 MiB); bkReadFrame allocates as the
	// bytes arrive (enc.ReadN), so a corrupt prefix costs what the stream
	// delivers, not what it claims.
	maxBkFrame = 16 << 20
)

var (
	errBkMagic = errors.New("backend: bad connection preamble")
	errBkShort = errors.New("backend: truncated frame")
)

type bkFrame struct {
	kind byte
	id   uint64
	body []byte
}

// bkCodec names this format to the shared reader and Value codec.
var bkCodec = enc.Format{Name: "backend", Truncated: errBkShort}

// ---- frame bodies ----

func invokeBody(key string, arg lang.Value) ([]byte, error) {
	return bkCodec.AppendValue(enc.AppendString(nil, key), arg)
}

func parseInvoke(body []byte) (key string, arg lang.Value, err error) {
	r := bkCodec.Reader(body)
	key = r.Str()
	arg = r.Value()
	return key, arg, r.Err
}

func resultBody(v lang.Value, errStr string) ([]byte, error) {
	status := bkOK
	if errStr != "" {
		status = bkErr
	}
	b, err := bkCodec.AppendValue([]byte{status}, v)
	if err != nil {
		return nil, err
	}
	return enc.AppendString(b, errStr), nil
}

func parseResult(body []byte) (v lang.Value, errStr string, err error) {
	r := bkCodec.Reader(body)
	status := r.U8()
	v = r.Value()
	errStr = r.Str()
	if r.Err != nil {
		return nil, "", r.Err
	}
	if status == bkOK {
		errStr = ""
	}
	return v, errStr, nil
}

// ---- framing ----

func bkWritePreamble(w io.Writer) error {
	b := append([]byte(bkMagic), 0, 0)
	binary.BigEndian.PutUint16(b[len(bkMagic):], bkVersion)
	_, err := w.Write(b)
	return err
}

func bkReadPreamble(r io.Reader) error {
	b := make([]byte, len(bkMagic)+2)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if string(b[:len(bkMagic)]) != bkMagic {
		return errBkMagic
	}
	if v := binary.BigEndian.Uint16(b[len(bkMagic):]); v != bkVersion {
		return fmt.Errorf("backend: protocol version %d, want %d", v, bkVersion)
	}
	return nil
}

func bkWriteFrame(w io.Writer, f bkFrame) error {
	b := enc.AppendU32(nil, uint32(1+8+len(f.body)))
	b = append(b, f.kind)
	b = enc.AppendU64(b, f.id)
	b = append(b, f.body...)
	_, err := w.Write(b)
	return err
}

func bkReadFrame(r io.Reader) (bkFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return bkFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 9 || n > maxBkFrame {
		return bkFrame{}, fmt.Errorf("backend: bad frame length %d", n)
	}
	b, err := enc.ReadN(r, int(n))
	if err != nil {
		return bkFrame{}, err
	}
	return bkFrame{kind: b[0], id: binary.BigEndian.Uint64(b[1:9]), body: b[9:]}, nil
}
