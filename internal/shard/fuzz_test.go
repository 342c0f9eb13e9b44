package shard

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
)

// FuzzDecode: any bytes are an error or a ring config, never a panic. The
// input is tried twice — as a whole blob, and as a body behind a correct
// header, so the fuzzer need not guess an FNV-64 to reach the parser. A
// config that decoded encodes, and decodes again to its canonical form.
func FuzzDecode(f *testing.F) {
	for _, cfg := range []RingConfig{testConfig(1), testConfig(3)} {
		blob, err := Encode(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[len(ringMagic)+2+8:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		framed := binary.BigEndian.AppendUint16(append([]byte(nil), ringMagic...), ringFormat)
		framed = append(binary.BigEndian.AppendUint64(framed, h.Sum64()), data...)
		for _, blob := range [][]byte{data, framed} {
			c, err := Decode(blob)
			if err != nil {
				continue
			}
			members := 0
			for _, g := range c.Groups {
				members += len(g.Members)
			}
			if len(c.Groups)+members > len(blob) {
				t.Fatalf("%d bytes decoded to %d groups with %d members", len(blob), len(c.Groups), members)
			}
			again, err := Encode(c)
			if err != nil {
				t.Fatalf("decoded config does not encode: %v\n%+v", err, c)
			}
			back, err := Decode(again)
			want, _ := c.normalize()
			if err != nil || !reflect.DeepEqual(back, want) {
				t.Fatalf("decode(encode(x)) != normalize(x) (%v)\n x    %+v\n back %+v", err, want, back)
			}
		}
	})
}
