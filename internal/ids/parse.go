package ids

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseReplicaAddrs parses a flag value of the form id=addr,id=addr,... into a
// replica-id-to-address map (empty for an empty list).
func ParseReplicaAddrs(s string) (map[ReplicaID]string, error) {
	out := map[ReplicaID]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("%q is not id=addr", part)
		}
		n, err := strconv.Atoi(kv[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive replica id", kv[0])
		}
		if _, dup := out[ReplicaID(n)]; dup {
			return nil, fmt.Errorf("replica id %d listed twice", n)
		}
		out[ReplicaID(n)] = kv[1]
	}
	return out, nil
}
