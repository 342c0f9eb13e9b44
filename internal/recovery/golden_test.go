package recovery

import (
	"encoding/hex"
	"reflect"
	"testing"

	"detmt/internal/lang"
)

// goldenCheckpoint is sampleCheckpoint plus everything the codec can carry
// beyond it: a stored error value and the v2 LSA section.
func goldenCheckpoint() *Checkpoint {
	c := sampleCheckpoint()
	c.Fields["err"] = lang.ErrValue("backend: call timed out")
	c.LSAFed = 12
	c.LSADecs = []LSADecRecord{{Index: 13, Mutex: 4, Thread: 0x4000000000000001}}
	return c
}

// The v2 bytes are what Encode produces; the v1 bytes are the same
// checkpoint as a pre-LSA build wrote it — version 1, no LSA section — and
// must keep decoding (checkpoints outlive the binary on disk). Recorded
// before the byte reader and the lang.Value codec moved into a package
// shared with wire and backend.
const (
	goldenV2 = "444d434b0002000000000000002a0000000059682f000000000000000011000000050000000365727204000000176261636b656e643a2063616c6c2074696d6564206f757400000004666c6167020000000000000001000000036d6f6e030000000000000002000000076e6f7468696e67000000000573746174650100000000000000030000deadbeefcafe0000123456789abc00000000000003df00000002000000000000000100000000000000640000000000000007000000000000000200000000000000650000000000000009000000000000000c00000001000000000000000d00000000000000044000000000000001"
	goldenV1 = "444d434b0001000000000000002a0000000059682f000000000000000011000000050000000365727204000000176261636b656e643a2063616c6c2074696d6564206f757400000004666c6167020000000000000001000000036d6f6e030000000000000002000000076e6f7468696e67000000000573746174650100000000000000030000deadbeefcafe0000123456789abc00000000000003df00000002000000000000000100000000000000640000000000000007000000000000000200000000000000650000000000000009"
)

func TestGoldenCheckpoints(t *testing.T) {
	c := goldenCheckpoint()
	b, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenV2 {
		t.Errorf("v2 checkpoint encoding drifted:\n  got  %s\n  want %s", got, goldenV2)
	}
	v2, _ := hex.DecodeString(goldenV2)
	if got, err := Decode(v2); err != nil || !reflect.DeepEqual(got, c) {
		t.Errorf("v2 golden decodes to %+v, %v\n  want %+v", got, err, c)
	}

	v1, _ := hex.DecodeString(goldenV1)
	want := goldenCheckpoint()
	want.LSAFed, want.LSADecs = 0, nil
	if got, err := Decode(v1); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("v1 golden decodes to %+v, %v\n  want %+v", got, err, want)
	}
}
