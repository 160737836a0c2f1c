package aurora

import (
	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
	"aurora/internal/dfs/proto"
)

// The mini distributed file system: the substrate equivalent of the
// paper's HDFS prototype. A NameNode owns metadata and desired
// placement, DataNodes store replicas and heartbeat, and a FSClient
// writes/reads files. Replica placement is pluggable (a seeded random
// HDFS placer by default, AuroraPlacer for Algorithm 4), and
// NameNode.OptimizeNow is the Aurora balancer entry point — wire it to a
// Controller for periodic optimization.
type (
	// NameNode is the metadata service.
	NameNode = namenode.NameNode
	// NameNodeConfig parameterizes a NameNode.
	NameNodeConfig = namenode.Config
	// Placer chooses initial replica locations.
	Placer = namenode.Placer
	// AuroraPlacer is Algorithm 4 initial placement.
	AuroraPlacer = namenode.AuroraPlacer

	// DataNode is a storage node.
	DataNode = datanode.DataNode
	// DataNodeConfig parameterizes a DataNode.
	DataNodeConfig = datanode.Config

	// FSClient is the file system client.
	FSClient = client.Client
	// FSClientOption configures an FSClient.
	FSClientOption = client.Option

	// FileInfo describes a stored file.
	FileInfo = proto.FileInfo
	// NodeInfo describes a datanode.
	NodeInfo = proto.NodeInfo
	// BlockLocation maps a block to its replica addresses.
	BlockLocation = proto.BlockLocation
	// DFSNodeID identifies a datanode.
	DFSNodeID = proto.NodeID
	// DFSHealthReport is the fsck summary.
	DFSHealthReport = proto.HealthReport
)

// StartNameNode launches a namenode.
func StartNameNode(cfg NameNodeConfig) (*NameNode, error) { return namenode.Start(cfg) }

// StartDataNode launches a datanode that registers with the namenode in
// its config.
func StartDataNode(cfg DataNodeConfig) (*DataNode, error) { return datanode.Start(cfg) }

// NewFSClient creates a client for the namenode at addr.
func NewFSClient(namenodeAddr string, opts ...FSClientOption) *FSClient {
	return client.New(namenodeAddr, opts...)
}

// Client options re-exported for discoverability.
var (
	// WithBlockSize overrides the client-side block split size.
	WithBlockSize = client.WithBlockSize
	// WithClientTimeout overrides the client's per-RPC timeout.
	WithClientTimeout = client.WithTimeout
	// WithClientSeed makes replica selection deterministic.
	WithClientSeed = client.WithSeed
	// WithChunkSize sets the data-path chunk size in bytes; n <= 0
	// means the default (DESIGN.md §15).
	WithChunkSize = client.WithChunkSize
	// WithReadAhead sets how many blocks Read prefetches beyond the one
	// currently draining (0 = strictly sequential).
	WithReadAhead = client.WithReadAhead
)
