package recovery

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// FuzzDecode: any bytes are an error or a checkpoint, never a panic; a
// checkpoint that decoded encodes, and decodes again to the same value.
// (Bytes need not match: a v1 input re-encodes as v2, a repeated field key
// as one entry.)
func FuzzDecode(f *testing.F) {
	for _, h := range []string{goldenV2, goldenV1} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		if n := len(c.Fields) + len(c.Hashes.Chains) + len(c.LSADecs); n > len(data) {
			t.Fatalf("%d bytes decoded to %d entries", len(data), n)
		}
		b, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v\n%+v", err, c)
		}
		again, err := Decode(b)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("decode(encode(x)) != x (%v)\n x    %+v\n back %+v", err, c, again)
		}
	})
}
