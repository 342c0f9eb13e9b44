package shard

import (
	"encoding/hex"
	"reflect"
	"testing"

	"detmt/internal/ids"
)

// TestGoldenRingBlob pins the serialized ring config and its agreement
// hash: routers and servers built from different commits of one deployment
// must keep agreeing on both. Recorded before the codec's hand-rolled
// reader and shift-by-hand appenders were replaced.
func TestGoldenRingBlob(t *testing.T) {
	cfg := RingConfig{Version: 3, Seed: 0x5eed, VNodes: 16, Groups: []GroupConfig{
		{ID: 1, Members: map[ids.ReplicaID]string{2: "10.0.0.2:7101", 1: "10.0.0.1:7101"}},
		{ID: 0, Members: map[ids.ReplicaID]string{1: "10.0.0.1:7100", 2: "10.0.0.2:7100"}, Backend: "10.0.0.1:7200"},
	}}
	const (
		wantBlob = "445452470001dafdf96d5399371200000000000000030000000000005eed000000100000000200000000000d31302e302e302e313a373230300000000200000001000d31302e302e302e313a3731303000000002000d31302e302e302e323a373130300000000100000000000200000001000d31302e302e302e313a3731303100000002000d31302e302e302e323a37313031"
		wantHash = uint64(0xdafdf96d53993712)
	)
	blob, err := Encode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != wantBlob {
		t.Errorf("ring blob drifted:\n  got  %s\n  want %s", got, wantBlob)
	}
	if h, err := cfg.Hash(); err != nil || h != wantHash {
		t.Errorf("ring hash %#x (%v), want %#x", h, err, wantHash)
	}
	golden, _ := hex.DecodeString(wantBlob)
	got, err := Decode(golden)
	if err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	want, _ := cfg.normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden blob decodes to %+v\n  want %+v", got, want)
	}
}
