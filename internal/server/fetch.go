package server

import (
	"encoding/binary"
	"fmt"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/wire"
)

// State transfer for a rejoining replica: three control commands, served
// by handleControl like every other, whose replies are binary and start
// with a status byte.
//
//	ckpt                    fetchOK, u64 slot, the encoded checkpoint | fetchNone
//	tail <from> <max>       fetchOK, u8 more, a wire batch body       | fetchTrimmed
//	decisions <from> <max>  fetchOK, u8 more, wire payloads end to end | fetchTrimmed
//
// Any other first byte is the control protocol's JSON error shape —
// {"error":"starting"} from a donor still assembling its group — and
// reaches the caller as an error, so "starting" (ask again), "trimmed"
// (fetch a newer checkpoint) and "nothing yet" (fetchOK with no entries)
// are three different answers.
const (
	fetchNone    = byte(0) // no checkpoint has been committed yet
	fetchOK      = byte(1)
	fetchTrimmed = byte(2) // <from> is below the donor's retention window
)

// fetchHead starts a tail or decisions reply that carries entries.
func fetchHead(more bool) []byte {
	if more {
		return []byte{fetchOK, 1}
	}
	return []byte{fetchOK, 0}
}

func (s *Server) serveCheckpoint() []byte {
	data, seq, ok := s.mgr.Latest()
	if !ok {
		return []byte{fetchNone}
	}
	return append(binary.BigEndian.AppendUint64([]byte{fetchOK}, seq), data...)
}

func (s *Server) serveTail(from uint64, max int) []byte {
	envs, more, ok := s.group.Node(s.o.ID).SequencedTail(from, max)
	if !ok {
		return []byte{fetchTrimmed}
	}
	b, err := wire.AppendBatch(fetchHead(more), envs)
	if err != nil {
		return errorReply(err)
	}
	return b
}

func (s *Server) serveDecisions(from uint64, max int) []byte {
	decs, more, ok := s.rep.DecisionTail(from, max)
	if !ok {
		return []byte{fetchTrimmed}
	}
	b := fetchHead(more)
	for _, d := range decs {
		b, _ = wire.AppendPayload(b, d) // an LSADecision always encodes
	}
	return b
}

// fetch runs one state-transfer command against donor and splits the
// status byte off its reply.
func fetch(tr *wire.TCP, donor ids.ReplicaID, timeout time.Duration, cmd string) (status byte, body []byte, err error) {
	b, err := tr.Control(donor, []byte(cmd), timeout)
	if err != nil {
		return 0, nil, err
	}
	if len(b) == 0 || b[0] > fetchTrimmed {
		return 0, nil, fmt.Errorf("server: %v answered %q with %q", donor, cmd, b)
	}
	return b[0], b[1:], nil
}

// fetchRange runs a tail or decisions command and splits its reply into
// the more flag and the entries. ok=false (trimmed) is an answer, not an
// error.
func fetchRange(tr *wire.TCP, donor ids.ReplicaID, timeout time.Duration, cmd string, from uint64, max int) (entries []byte, more, ok bool, err error) {
	status, body, err := fetch(tr, donor, timeout, fmt.Sprintf("%s %d %d", cmd, from, max))
	switch {
	case err != nil:
		return nil, false, false, err
	case status == fetchTrimmed:
		return nil, false, false, nil
	case status != fetchOK || len(body) == 0:
		return nil, false, false, fmt.Errorf("server: %v answered %q with status %d, %d bytes", donor, cmd, status, len(body))
	}
	return body[1:], body[0] != 0, true, nil
}

// The three fetches as the recovery orchestrator and the gap healer call
// them. In every one ok=false is an answer from a live donor ("I have
// nothing that old"), err a donor that did not answer usefully.

// fetchCheckpoint asks donor for its latest committed checkpoint (encoded)
// and the slot it covers. ok=false: the donor has not committed one yet.
func fetchCheckpoint(tr *wire.TCP, donor ids.ReplicaID, timeout time.Duration) (data []byte, seq uint64, ok bool, err error) {
	status, body, err := fetch(tr, donor, timeout, "ckpt")
	switch {
	case err != nil:
		return nil, 0, false, err
	case status == fetchNone:
		return nil, 0, false, nil
	case status != fetchOK || len(body) < 8:
		return nil, 0, false, fmt.Errorf("server: %v answered \"ckpt\" with status %d, %d bytes", donor, status, len(body))
	}
	return body[8:], binary.BigEndian.Uint64(body), true, nil
}

// fetchTail asks donor for up to max delivered sequenced envelopes from slot
// from on. more: the donor has delivered further slots past the returned
// ones; ok=false: from is below the donor's retention window.
func fetchTail(tr *wire.TCP, donor ids.ReplicaID, from uint64, max int, timeout time.Duration) (envs []gcs.Envelope, more, ok bool, err error) {
	entries, more, ok, err := fetchRange(tr, donor, timeout, "tail", from, max)
	if err != nil || !ok {
		return nil, false, false, err
	}
	envs, err = wire.DecodeBatch(entries)
	if err != nil {
		return nil, false, false, fmt.Errorf("server: tail from %v undecodable: %w", donor, err)
	}
	return envs, more, true, nil
}

// fetchDecisions asks the LSA leader for up to max retained scheduling
// decisions from index from (1-based) on; more and ok as in fetchTail.
func fetchDecisions(tr *wire.TCP, leader ids.ReplicaID, from uint64, max int, timeout time.Duration) (decs []replica.LSADecision, more, ok bool, err error) {
	entries, more, ok, err := fetchRange(tr, leader, timeout, "decisions", from, max)
	if err != nil || !ok {
		return nil, false, false, err
	}
	for len(entries) > 0 {
		p, n, err := wire.DecodePayload(entries)
		d, isDec := p.(replica.LSADecision)
		if err != nil || !isDec {
			return nil, false, false, fmt.Errorf("server: decision tail from %v undecodable (%T, %v)", leader, p, err)
		}
		decs = append(decs, d)
		entries = entries[n:]
	}
	return decs, more, true, nil
}
