package detmt

import (
	"detmt/internal/ids"
	"detmt/internal/server"
)

// This file re-exports the distributed deployment mode: real replica
// server processes connected over TCP (internal/server on top of the
// internal/wire transport), as opposed to the in-process simulated
// clusters that NewCluster builds. cmd/detmt-server and cmd/detmt-load
// are thin wrappers over the same types.

// ServerOptions configures one replica server process (see
// internal/server.Options for field documentation).
type ServerOptions = server.Options

// Server hosts one replica over TCP inside a paced virtual clock.
type Server = server.Server

// NewServer builds and starts a replica server: it listens for peer and
// client connections, dials its static membership, and (on the lowest
// member id) runs the stamped sequencing loop that keeps every member's
// virtual schedule identical.
func NewServer(o ServerOptions) (*Server, error) { return server.New(o) }

// LoadOptions configures a load run — closed loop, or open loop at
// Rate — through an invoker dialed with DialGroup (see
// internal/server.RunOptions for field documentation).
type LoadOptions = server.RunOptions

// LoadResult is the outcome of one load run, including the per-replica
// schedule consistency hashes and whether they converged.
type LoadResult = server.RunResult

// ServerStatus is the control-protocol snapshot a server reports.
type ServerStatus = server.Status

// DialOptions sizes and names a load run's pool of client identities.
type DialOptions = server.ShardClientOptions

// DialGroup connects to every member of a cluster (servers maps replica
// id to address). The result is LoadOptions.Invoker; Close it after use.
func DialGroup(servers map[ReplicaID]string, o DialOptions) (*server.ShardClients, error) {
	return server.DialGroup(servers, o)
}

// RunLoad drives the Fig. 1 measurement protocol over real sockets:
// first-reply-wins latency, and a final convergence check across all
// replicas.
func RunLoad(o LoadOptions) (*LoadResult, error) { return server.Run(o) }

// ReplicaID is a group member identity (used in ServerOptions.Peers and
// DialGroup's server map).
type ReplicaID = ids.ReplicaID
