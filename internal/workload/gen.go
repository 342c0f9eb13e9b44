package workload

import (
	"detmt/internal/ids"
	"detmt/internal/lang"
)

// Gen draws one request from a client's RNG: the routing key (what a
// consistent-hash ring routes on; ignored by an unsharded cluster), the
// method and its argument list. It is the one shape every load driver
// takes its requests in.
type Gen func(rng *ids.RNG) (key uint64, method string, args []lang.Value)

// Fig1Gen draws Fig. 1 requests. With keyed set a uniformly random routing
// key is drawn BEFORE the arguments (a sharded deployment); without it no
// key is drawn, so an unsharded run's stream is exactly Fig1Args'.
func Fig1Gen(cfg Fig1Config, keyed bool) Gen {
	return func(rng *ids.RNG) (uint64, string, []lang.Value) {
		var key uint64
		if keyed {
			key = rng.Uint64()
		}
		return key, MethodName, Fig1Args(cfg, rng)
	}
}

// FamilyGen draws family-partitioned requests (FamilyArgs).
func FamilyGen(cfg FamilyConfig) Gen {
	return func(rng *ids.RNG) (uint64, string, []lang.Value) {
		method, args := FamilyArgs(cfg, rng)
		return 0, method, args
	}
}

// KVGen draws KV facade operations (KVRequest).
func KVGen(keys int, pGet float64) Gen {
	return func(rng *ids.RNG) (uint64, string, []lang.Value) {
		return KVRequest(rng, keys, pGet)
	}
}
