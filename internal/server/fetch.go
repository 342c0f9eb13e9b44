package server

import (
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/wire"
)

// The three state-transfer fetches of the rejoin path, as the recovery
// orchestrator and the gap healer call them. In every one ok=false is an
// answer from a live donor ("I have nothing that old"), err a donor that
// did not answer usefully.

// fetchCheckpoint asks donor for its latest committed checkpoint (encoded)
// and the slot it covers. ok=false: the donor has not committed one yet.
func fetchCheckpoint(tr *wire.TCP, donor ids.ReplicaID, timeout time.Duration) (data []byte, seq uint64, ok bool, err error) {
	return tr.FetchCheckpoint(donor, timeout)
}

// fetchTail asks donor for up to max delivered sequenced envelopes from slot
// from on. more: the donor has delivered further slots past the returned
// ones; ok=false: from is below the donor's retention window.
func fetchTail(tr *wire.TCP, donor ids.ReplicaID, from uint64, max int, timeout time.Duration) (envs []gcs.Envelope, more, ok bool, err error) {
	return tr.FetchTail(donor, from, max, timeout)
}

// fetchDecisions asks the LSA leader for up to max retained scheduling
// decisions from index from (1-based) on; more and ok as in fetchTail.
func fetchDecisions(tr *wire.TCP, leader ids.ReplicaID, from uint64, max int, timeout time.Duration) (decs []replica.LSADecision, more, ok bool, err error) {
	return tr.FetchDecisions(leader, from, max, timeout)
}
