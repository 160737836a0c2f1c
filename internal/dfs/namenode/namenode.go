// Package namenode implements the metadata service of the mini
// distributed file system, mirroring the HDFS architecture the paper
// builds on (Section II): a single namenode owns the directory tree and
// the block map, datanodes register and heartbeat, and replica placement
// is a pluggable policy — the hook Aurora patches in HDFS.
//
// The namenode keeps the *desired* placement as a core.Placement and the
// *actual* replica locations as per-block confirmation sets fed by
// datanode block reports. A reconcile loop converges reality toward
// desire by piggybacking replicate/delete commands on heartbeat
// responses; Aurora's optimizer simply mutates the desired placement
// (via core.Optimize) and lets reconciliation carry the blocks.
package namenode

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"aurora/internal/aurora"
	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/popularity"
	"aurora/internal/topology"
)

// Errors returned by the namenode.
var (
	ErrNotReady     = errors.New("namenode: cluster not ready (datanodes still registering)")
	ErrFileExists   = errors.New("namenode: file exists")
	ErrFileNotFound = errors.New("namenode: file not found")
	ErrFileComplete = errors.New("namenode: file is complete")
	ErrBadRequest   = errors.New("namenode: bad request")
	ErrClosed       = errors.New("namenode: closed")
	// ErrPlanDropped is WithPlacement's report that the rebalancer ran
	// but a live change made since the snapshot no longer fit its plan,
	// so the plan was not installed (DESIGN.md §10.6).
	ErrPlanDropped = errors.New("namenode: plan dropped: a live change no longer fits it")
)

// Placer chooses initial replica locations for a new block, recording
// them in the desired placement.
type Placer interface {
	Place(p *core.Placement, id core.BlockID, k int, writer topology.MachineID) error
}

// AuroraPlacer is Algorithm 4: greedy load-aware initial placement.
type AuroraPlacer struct{}

// Place implements Placer.
func (AuroraPlacer) Place(p *core.Placement, id core.BlockID, k int, writer topology.MachineID) error {
	return core.InitialPlace(p, id, k, writer)
}

// Config parameterizes a namenode.
type Config struct {
	// ExpectedNodes is how many datanodes must register before the
	// cluster serves writes.
	ExpectedNodes int
	// Racks is the number of racks datanodes may declare.
	Racks int
	// DefaultReplication and DefaultMinRacks apply to files created
	// without explicit values (HDFS default: 3 replicas over 2 racks).
	DefaultReplication int
	DefaultMinRacks    int
	// BlockSize is the maximum block size in bytes files are split into:
	// add_block refuses a longer block. At most proto.MaxPayloadBytes.
	BlockSize int
	// DeadTimeout declares a datanode dead after this long without a
	// heartbeat.
	DeadTimeout time.Duration
	// ReconcileInterval is the period of the reconcile loop.
	ReconcileInterval time.Duration
	// WindowBucket and WindowBuckets define the usage monitor's sliding
	// window W = WindowBucket * WindowBuckets.
	WindowBucket  time.Duration
	WindowBuckets int
	// Placer chooses initial block locations; nil means HDFS random.
	Placer Placer
	// Seed feeds the default placer.
	Seed uint64
	// Timeout bounds RPC handling.
	Timeout time.Duration
	// ListenAddr defaults to 127.0.0.1:0.
	ListenAddr string
	// FsImagePath, when set, persists the metadata checkpoint there: an
	// existing checkpoint is loaded at startup (datanodes resume via
	// their regular heartbeats) and the namenode re-saves it on every
	// CheckpointInterval and on Close — but only when the persisted
	// metadata actually changed since the last save (saves are coalesced
	// behind a dirty flag; block reports alone never trigger one).
	FsImagePath string
	// CheckpointInterval defaults to 30s.
	CheckpointInterval time.Duration
	// Shards partitions each OptimizeNow period into this many hash
	// shards (core.OptimizePartitioned): the period's copy of the block
	// map is split, the per-shard Algorithm-5 periods run concurrently,
	// and their result is replayed onto the copy against the real
	// capacities. The block map itself, the placer, the heal pass, the
	// usage monitor and the forecaster are one each whatever the count,
	// so the popularities the optimizer reads do not depend on it. Values
	// below 2 run one unpartitioned period.
	Shards int
	// Predictor selects the popularity forecaster the optimizer runs
	// under: "ewma" or "seasonal" (see popularity.New), or "" /
	// "reactive" for raw window counts. Per-period prediction-error
	// series are exported as aurora_predictor_* metrics.
	Predictor string
	// Clock, when set, is the namenode's clock, and its owner calls Tick
	// at each TickDue instead of a reconcile or checkpoint loop running.
	// nil means the wall clock and the loop.
	Clock func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.ExpectedNodes <= 0 {
		return c, fmt.Errorf("%w: ExpectedNodes must be positive", ErrBadRequest)
	}
	if c.Racks <= 0 {
		c.Racks = 1
	}
	if c.DefaultReplication <= 0 {
		c.DefaultReplication = 3
	}
	if c.DefaultMinRacks <= 0 {
		c.DefaultMinRacks = 2
	}
	if c.DefaultMinRacks > c.Racks {
		c.DefaultMinRacks = c.Racks
	}
	if c.DefaultMinRacks > c.DefaultReplication {
		return c, fmt.Errorf("%w: DefaultMinRacks %d > DefaultReplication %d",
			ErrBadRequest, c.DefaultMinRacks, c.DefaultReplication)
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.BlockSize > proto.MaxPayloadBytes {
		return c, fmt.Errorf("%w: BlockSize %d above the %d-byte frame payload limit",
			ErrBadRequest, c.BlockSize, proto.MaxPayloadBytes)
	}
	if c.DeadTimeout <= 0 {
		c.DeadTimeout = 2 * time.Second
	}
	if c.ReconcileInterval <= 0 {
		c.ReconcileInterval = 100 * time.Millisecond
	}
	if c.WindowBucket <= 0 {
		c.WindowBucket = time.Minute
	}
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = proto.DefaultTimeout
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c, nil
}

type nodeState struct {
	id       proto.NodeID
	addr     string
	rack     int
	capacity int
	lastSeen time.Time
	alive    bool
	// draining marks a node being decommissioned: its replicas migrate
	// elsewhere and it receives no new data.
	draining bool
	// decommissioned means draining completed and the node is empty.
	decommissioned bool
	// digest is the xor of proto.BlockDigest over every block this node
	// is confirmed to hold — maintained incrementally on each
	// confirm/unconfirm so comparing it against an incremental report's
	// digest costs O(1), never a set scan (DESIGN.md §15).
	digest uint64
	// wantFull asks the node for a full block report on its next
	// heartbeat: set on rejoin, on digest mismatch, and at boot.
	wantFull bool
	// fresh holds the blocks a MsgBlockReceived confirmed on this node
	// since its last heartbeat was applied — its own report as a
	// pipeline head, or a head's report naming it downstream. A full
	// report listed before such a block landed cannot name it and must
	// not be read as "gone": the node's next delta carries the block.
	fresh map[proto.BlockID]bool
	// holds is the per-node view of NameNode.confirmed: the blocks this
	// node is confirmed to hold, kept by confirmLocked and
	// unconfirmLocked, so the walks that need one node's blocks (a full
	// report, a death, a drain's end) cost O(node), not O(namespace).
	holds map[proto.BlockID]struct{}
}

type fileMeta struct {
	path   string
	blocks []proto.BlockID
	// lengths[i] is the byte length of blocks[i], the layout the fsimage
	// stores.
	lengths     []int
	replication int
	minRacks    int
	complete    bool
}

// inflightKey tracks an outstanding replicate command.
type inflightKey struct {
	block proto.BlockID
	node  proto.NodeID
}

// NameNode is a running metadata service.
type NameNode struct {
	cfg    Config
	server *proto.Server

	// periodMu serializes periods (runPeriod, which OptimizeNow and
	// WithPlacement both run through) and guards the state they share.
	// It is taken before mu and never while mu is held: a period holds it
	// throughout, and mu only to snapshot and to install (DESIGN.md
	// §10.6).
	periodMu sync.Mutex
	// forecast turns each period's window into block popularities
	// (cfg.Predictor); a period commits its forecast only if it installs.
	forecast *aurora.Forecaster
	// shares is the cross-shard budget apportionment a partitioned
	// period carries to the next (core.OptimizePartitioned).
	shares []int
	// computed, when set, runs between a period's compute and install
	// steps with no namenode lock held: the seam tests use to land
	// mutations mid-period.
	computed func(plan *core.Placement)

	mu        sync.Mutex
	nodes     []*nodeState
	ready     bool
	cluster   *topology.Cluster
	placement *core.Placement
	files     map[string]*fileMeta
	// order holds the same files ascending by path, so list_files and the
	// fsimage walk it instead of sorting the namespace (DESIGN.md §9).
	order     []*fileMeta
	nextBlock proto.BlockID
	// namespace is the namespace ID, drawn when the namespace forms and
	// kept in the fsimage; set before serving, never changed
	// (checkNamespace).
	namespace uint64
	// confirmed[b] is the set of nodes that actually hold block b
	// according to block reports.
	confirmed map[proto.BlockID]map[proto.NodeID]bool
	// pending commands per node, delivered on its next heartbeat, and
	// the same commands as a set, so a queue is de-duplicated without a
	// scan (enqueueLocked). Every site that drops commands from one drops
	// them from the other.
	pendingCmds map[proto.NodeID][]proto.Command
	queued      map[proto.NodeID]map[proto.Command]struct{}
	// inflight replication commands with issue time, to avoid
	// re-issuing every reconcile tick.
	inflight map[inflightKey]time.Time
	// pending holds the blocks that may still need a reconcile command;
	// every block outside it is settled (reconcileBlockLocked). A block
	// enters when its desired state changes — the placement records it,
	// and syncPendingLocked moves it here — or its confirmed set does
	// (confirmLocked, unconfirmLocked), or a node it is desired on or held
	// by dies or starts draining (unsettleNodeLocked). A block being
	// written and a held block the namespace lacks never leave. The
	// reconcile pass walks only this set and drops what it finds settled
	// (DESIGN.md §10.3).
	pending map[proto.BlockID]struct{}
	// walk is the block-ID buffer syncPendingLocked, the reconcile pass
	// and a period's install reuse.
	walk []core.BlockID
	// touched collects, while a period computes off the lock, every block
	// whose desired state changed since its snapshot: syncPendingLocked
	// adds what it drains. The install rebases them onto the plan. nil
	// outside a period.
	touched map[proto.BlockID]struct{}
	// writing holds the allocation time of blocks whose initial pipeline
	// write may still be under way (file not yet completed); reconcile
	// leaves them alone for inflightTTL instead of racing the pipeline
	// with replicate commands for hops that have not confirmed yet.
	writing map[proto.BlockID]time.Time
	// moveDurations records issue-to-confirmation latency of completed
	// replica transfers (Figure 6c of the paper measures exactly this).
	moveDurations []time.Duration
	// commandsIssued counts replicate/delete commands by kind as a
	// report hands them out. A queued copy dropped before that (its
	// replica was reported gone first) is not counted, so the count does
	// not depend on where a reconcile tick lands.
	commandsIssued map[proto.CommandKind]int64
	// dirty tracks whether persisted metadata (nodes, files, desired
	// placement, nextBlock) changed since the last fsimage save; the
	// checkpoint tick and Close skip the save when clean, so block
	// reports and heartbeats never cause disk writes.
	dirty bool
	// fsSaves counts completed fsimage saves, for the coalescing
	// regression test and operators.
	fsSaves int64

	// monitor is the usage-monitor window every block's accesses are
	// recorded in. Observers (telemetry, PopularitySnapshot) read it with
	// Peek: a scrape must never advance or prune it, or the counts the
	// optimizer reads would depend on scrape frequency. Only the
	// consuming path, a period's snapshot, calls Snapshot.
	monitor *popularity.Monitor[core.BlockID]
	due     time.Time // the next reconcile pass of a Config.Clock's owner

	stop chan struct{}
	done chan struct{}
}

// Start launches the namenode.
func Start(cfg Config) (*NameNode, error) {
	stepped := cfg.Clock != nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Placer == nil {
		placer, err := baseline.NewHDFSPolicy(rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xfeed)))
		if err != nil {
			return nil, err
		}
		cfg.Placer = placer
	}
	mon, err := popularity.NewMonitor[core.BlockID](int64(cfg.WindowBucket), cfg.WindowBuckets)
	if err != nil {
		return nil, err
	}
	forecast, err := aurora.NewForecaster(cfg.Predictor, popularity.PredictorOptions{})
	if err != nil {
		return nil, err
	}
	nn := &NameNode{
		cfg:            cfg,
		files:          make(map[string]*fileMeta),
		nextBlock:      1,
		confirmed:      make(map[proto.BlockID]map[proto.NodeID]bool),
		pendingCmds:    make(map[proto.NodeID][]proto.Command),
		queued:         make(map[proto.NodeID]map[proto.Command]struct{}),
		inflight:       make(map[inflightKey]time.Time),
		pending:        make(map[proto.BlockID]struct{}),
		writing:        make(map[proto.BlockID]time.Time),
		commandsIssued: make(map[proto.CommandKind]int64),
		monitor:        mon,
		forecast:       forecast,
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	if cfg.FsImagePath != "" {
		if err := nn.loadFsImage(cfg.FsImagePath); err != nil {
			return nil, err
		}
	}
	for nn.namespace == 0 { // no image: a new namespace (0 means unbound)
		if err := binary.Read(crand.Reader, binary.LittleEndian, &nn.namespace); err != nil {
			return nil, fmt.Errorf("namenode: draw namespace ID: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("namenode: listen: %w", err)
	}
	nn.server = proto.Serve(ln, nn.handle, cfg.Timeout)
	if stepped {
		nn.due = cfg.Clock().Add(cfg.ReconcileInterval)
		close(nn.done)
	} else {
		go nn.reconcileLoop()
	}
	return nn, nil
}

// Addr returns the namenode's control address.
func (nn *NameNode) Addr() string { return nn.server.Addr() }

// Close stops the reconcile loop, if it runs, and the server.
func (nn *NameNode) Close() error {
	select {
	case <-nn.stop:
		return ErrClosed
	default:
	}
	close(nn.stop)
	<-nn.done
	err := nn.server.Close()
	// Flush-on-shutdown: the final save is skipped only when nothing
	// changed since the last checkpoint.
	if nn.cfg.FsImagePath != "" && nn.Ready() && nn.Dirty() {
		if saveErr := nn.SaveFsImage(nn.cfg.FsImagePath); saveErr != nil && err == nil {
			err = saveErr
		}
	}
	return err
}

// Dirty reports whether persisted metadata changed since the last
// fsimage save.
func (nn *NameNode) Dirty() bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.dirty
}

// FsImageSaves reports how many fsimage saves completed so far.
func (nn *NameNode) FsImageSaves() int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.fsSaves
}

// markDirtyLocked flags that persisted metadata diverged from the
// on-disk checkpoint.
func (nn *NameNode) markDirtyLocked() { nn.dirty = true }

// Ready reports whether all expected datanodes have registered.
func (nn *NameNode) Ready() bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.ready
}

// WaitReady blocks until the cluster is ready or the timeout elapses.
func (nn *NameNode) WaitReady(timeout time.Duration) error {
	if poll(timeout, 5*time.Millisecond, nn.Ready) {
		return nil
	}
	return fmt.Errorf("namenode: %w after %v", ErrNotReady, timeout)
}

// poll calls cond every period until it holds or timeout passes, on the
// wall clock, and reports whether it held.
func poll(timeout, period time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(period) {
		if cond() {
			return true
		}
	}
	return false
}

// handle dispatches one control request.
func (nn *NameNode) handle(req *proto.Message, _ []byte) (*proto.Message, []byte) {
	if err := nn.checkNamespace(req); err != nil {
		return proto.ErrorMessage(err), nil
	}
	var (
		resp *proto.Message
		err  error
	)
	switch req.Type {
	case proto.MsgRegister:
		resp, err = nn.handleRegister(req)
	case proto.MsgHeartbeatDelta:
		resp, err = nn.handleReport(req)
	case proto.MsgBlockReceived:
		resp, err = nn.handleBlockReceived(req)
	case proto.MsgCreateFile:
		resp, err = nn.handleCreate(req)
	case proto.MsgAddBlock:
		resp, err = nn.handleAddBlock(req)
	case proto.MsgCompleteFile:
		resp, err = nn.handleComplete(req)
	case proto.MsgGetLocations:
		resp, err = nn.handleGetLocations(req)
	case proto.MsgSetRepl:
		resp, err = nn.handleSetReplication(req)
	case proto.MsgDeleteFile:
		resp, err = nn.handleDelete(req)
	case proto.MsgListFiles:
		resp, err = nn.handleList()
	case proto.MsgStatFile:
		resp, err = nn.handleStat(req)
	case proto.MsgClusterInfo:
		resp, err = nn.handleClusterInfo()
	case proto.MsgFsck:
		h := nn.Health()
		resp = &proto.Message{Type: proto.MsgOK, Health: &h}
	case proto.MsgDecommission:
		err = nn.Decommission(req.Node)
	default:
		err = fmt.Errorf("%w: unexpected message %q", ErrBadRequest, req.Type)
	}
	if err != nil {
		return proto.ErrorMessage(err), nil
	}
	if resp == nil {
		resp = &proto.Message{Type: proto.MsgOK}
	}
	return resp, nil
}

// checkNamespace refuses a datanode bound to another namespace, so a
// namenode that lost its image never takes old blocks for surplus. It
// checks reports and arrivals too: a datanode that outlived a namenode
// restart reports under a node ID the new namespace may have given
// another node. Only a register may come unbound (0).
func (nn *NameNode) checkNamespace(req *proto.Message) error {
	switch {
	case req.Type != proto.MsgRegister && req.Type != proto.MsgHeartbeatDelta && req.Type != proto.MsgBlockReceived,
		req.Namespace == nn.namespace, req.Namespace == 0 && req.Type == proto.MsgRegister:
		return nil
	}
	return fmt.Errorf("%w: namespace mismatch: %s from namespace %d, this namenode's is %d",
		ErrBadRequest, req.Type, req.Namespace, nn.namespace)
}

func (nn *NameNode) handleRegister(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if nn.ready {
		// A restarted datanode rejoins under its old identity when it
		// comes back on the same data address: it resumes heartbeating
		// and its block report re-confirms whatever survived on disk,
		// sparing the cluster a re-replication storm.
		node := nn.nodeByAddrLocked(req.DataAddr)
		if node == nil {
			return nil, fmt.Errorf("%w: cluster already formed", ErrBadRequest)
		}
		node.alive = true
		node.lastSeen = nn.cfg.Clock()
		node.decommissioned = false
		// Whatever the restarted node still holds must be re-established
		// from a full baseline, not deltas.
		node.wantFull = true
		node.fresh = nil
		return &proto.Message{Type: proto.MsgOK, Node: node.id, Namespace: nn.namespace}, nil
	}
	if req.Rack < 0 || req.Rack >= nn.cfg.Racks {
		return nil, fmt.Errorf("%w: rack %d outside [0,%d)", ErrBadRequest, req.Rack, nn.cfg.Racks)
	}
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrBadRequest, req.Capacity)
	}
	id := proto.NodeID(len(nn.nodes))
	nn.nodes = append(nn.nodes, &nodeState{
		id:       id,
		addr:     req.DataAddr,
		rack:     req.Rack,
		capacity: req.Capacity,
		lastSeen: nn.cfg.Clock(),
		alive:    true,
	})
	if len(nn.nodes) == nn.cfg.ExpectedNodes {
		if err := nn.buildClusterLocked(); err != nil {
			nn.nodes = nn.nodes[:len(nn.nodes)-1]
			return nil, err
		}
		nn.ready = true
	}
	nn.markDirtyLocked()
	return &proto.Message{Type: proto.MsgOK, Node: id, Namespace: nn.namespace}, nil
}

// buildClusterLocked freezes the topology once all nodes registered.
// Machine IDs equal NodeIDs; the topology builder requires rack-grouped
// insertion order, so nodes are added rack by rack — but MachineID must
// match NodeID, so instead every rack is created first and machines are
// appended in NodeID order.
func (nn *NameNode) buildClusterLocked() error {
	var b topology.Builder
	rackIDs := make([]topology.RackID, nn.cfg.Racks)
	for r := 0; r < nn.cfg.Racks; r++ {
		rackIDs[r] = b.AddRack()
	}
	for _, node := range nn.nodes {
		// Zero task slots: the namenode runs no tasks.
		mid, err := b.AddMachine(rackIDs[node.rack], node.capacity, 0)
		if err != nil {
			return fmt.Errorf("namenode: build topology: %w", err)
		}
		if int(mid) != int(node.id) {
			return fmt.Errorf("namenode: machine/node id mismatch: %d vs %d", mid, node.id)
		}
	}
	cluster, err := b.Build()
	if err != nil {
		return fmt.Errorf("namenode: build topology: %w", err)
	}
	placement, err := core.NewPlacement(cluster, nil)
	if err != nil {
		return fmt.Errorf("namenode: placement: %w", err)
	}
	// Every change to the desired placement — by the placer, a heal, a
	// drain, the optimizer or an external rebalancer — is recorded for
	// the reconcile pass's pending set.
	placement.TrackChanges()
	nn.cluster = cluster
	nn.placement = placement
	return nil
}

// handleReport applies a block report. A full report (FullReport on
// the request) is the delta from the empty set: its Received is the
// node's whole set, so every held block it does not name is gone —
// except one a MsgBlockReceived confirmed on the node since its last
// report (fresh: its own head report, or a head's naming it
// downstream), which may have landed after the list was taken; the
// node's next delta carries it. Received then applies like an
// immediate block_received, completing in-flight replications, and
// Deleted retracts the node's confirmations: a report is the only way a
// holder says a replica is gone. Application is idempotent, so a
// retransmit after a lost response is harmless. A full report clears
// any pending resync request. A delta is checked against the node's
// incrementally maintained digest: a mismatch — a lost event, a
// namenode restart, corruption — demands a full report rather than
// trusting the divergent view (DESIGN.md §15.5).
func (nn *NameNode) handleReport(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.nodeLocked(req.Node)
	if err != nil {
		return nil, err
	}
	node.lastSeen = nn.cfg.Clock()
	node.alive = true
	if req.FullReport {
		reported := make(map[proto.BlockID]bool, len(req.Received))
		for _, b := range req.Received {
			reported[b] = true
		}
		for b := range node.holds {
			if !reported[b] && !node.fresh[b] {
				nn.unconfirmLocked(b, node.id)
			}
		}
	}
	for _, b := range req.Received {
		// An arrival may complete a replicate command whose immediate
		// MsgBlockReceived was lost.
		nn.confirmLocked(b, node.id)
	}
	for _, b := range req.Deleted {
		nn.unconfirmLocked(b, node.id)
	}
	node.fresh = nil
	resp := &proto.Message{Type: proto.MsgOK, Commands: nn.pendingCmds[node.id]}
	delete(nn.pendingCmds, node.id)
	delete(nn.queued, node.id)
	for _, cmd := range resp.Commands {
		nn.commandsIssued[cmd.Kind]++
	}
	if req.FullReport {
		node.wantFull = false
		metrics.Default.Counter("dfs.namenode.report_full").Inc()
		return resp, nil
	}
	metrics.Default.Counter("dfs.namenode.report_delta").Inc()
	if node.wantFull || node.digest != req.Digest {
		// Keep asking until the full report actually lands; the digest
		// alone would also keep mismatching, but wantFull makes the
		// request sticky even if the sets transiently re-agree.
		if !node.wantFull {
			metrics.Default.Counter("dfs.namenode.report_resync").Inc()
		}
		node.wantFull = true
		resp.FullReport = true
	}
	return resp, nil
}

// handleBlockReceived applies a pipeline head's one arrival report for
// a block (DESIGN.md §15.4): the reporter holds it, and so does each
// downstream hop in Pipeline, which the head names only when their ack
// vouched for them. An address that is no registered live node is
// skipped. Every node confirmed here is marked fresh, so a full report
// listed before the arrival cannot unconfirm it.
func (nn *NameNode) handleBlockReceived(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	node, err := nn.nodeLocked(req.Node)
	if err != nil {
		return nil, err
	}
	nn.freshLocked(req.Block, node)
	for _, addr := range req.Pipeline {
		if down := nn.nodeByAddrLocked(addr); down != nil && down.alive {
			nn.freshLocked(req.Block, down)
		}
	}
	return nil, nil
}

// freshLocked confirms that node holds block b by an arrival report
// and marks the confirmation fresh.
func (nn *NameNode) freshLocked(b proto.BlockID, node *nodeState) {
	nn.confirmLocked(b, node.id)
	if node.fresh == nil {
		node.fresh = make(map[proto.BlockID]bool)
	}
	node.fresh[b] = true
}

// confirmLocked records that node n holds block b: it completes a copy
// of b to n in flight, folds b into n's set digest and holds index, and
// puts b in the pending set. An ID at or past nextBlock — a replica
// written after the checkpoint a restarted namenode loaded — moves
// allocation past it, so a new block never counts the stale replica as
// a holder; the walk deletes the replica like any block without a spec.
// Idempotent: re-confirming changes nothing.
func (nn *NameNode) confirmLocked(b proto.BlockID, n proto.NodeID) {
	key := inflightKey{block: b, node: n}
	if issued, ok := nn.inflight[key]; ok {
		nn.moveDurations = append(nn.moveDurations, nn.cfg.Clock().Sub(issued))
		delete(nn.inflight, key)
	}
	holders, ok := nn.confirmed[b]
	if !ok {
		holders = make(map[proto.NodeID]bool)
		nn.confirmed[b] = holders
	}
	if holders[n] {
		return
	}
	holders[n] = true
	// The ID is a datanode's word, so it is not trusted to leave room
	// above it; handleAddBlock refuses to allocate at the top.
	if b >= nn.nextBlock && b < math.MaxInt64 {
		nn.nextBlock = b + 1
		nn.markDirtyLocked()
	}
	node := nn.nodes[n]
	node.digest ^= proto.BlockDigest(b)
	if node.holds == nil {
		node.holds = make(map[proto.BlockID]struct{})
	}
	node.holds[b] = struct{}{}
	nn.pending[b] = struct{}{}
}

// unconfirmLocked is the inverse of confirmLocked: it removes the
// holder record, folds the block back out of the node's digest and
// holds index, puts b in the pending set and drops a delete of that
// replica still queued for the node. The block's confirmed entry stays,
// even once empty: the walk drops that of a block the namespace lacks.
// Idempotent like its counterpart.
func (nn *NameNode) unconfirmLocked(b proto.BlockID, n proto.NodeID) {
	holders, ok := nn.confirmed[b]
	if !ok || !holders[n] {
		return
	}
	delete(holders, n)
	node := nn.nodes[n]
	delete(node.fresh, b)
	delete(node.holds, b)
	node.digest ^= proto.BlockDigest(b)
	nn.pending[b] = struct{}{}
	// A delete of the replica still queued — a pass may re-queue one the
	// node was handed before its report arrived — is stale now, and
	// fsck must not count it as pending once Converged holds.
	stale := proto.Command{Kind: proto.CmdDelete, Block: b}
	if _, ok := nn.queued[n][stale]; !ok {
		return
	}
	delete(nn.queued[n], stale)
	cmds := nn.pendingCmds[n]
	i := slices.Index(cmds, stale)
	nn.pendingCmds[n] = slices.Delete(cmds, i, i+1)
}

// DropConfirmation erases the namenode's record that node n holds block
// b without telling anyone — a test hook simulating a lost report, so
// the digest-mismatch resync path can be exercised deterministically.
func (nn *NameNode) DropConfirmation(b proto.BlockID, n proto.NodeID) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.unconfirmLocked(b, n)
}

func (nn *NameNode) nodeLocked(id proto.NodeID) (*nodeState, error) {
	if int(id) < 0 || int(id) >= len(nn.nodes) {
		return nil, fmt.Errorf("%w: unknown node %d", ErrBadRequest, id)
	}
	return nn.nodes[id], nil
}

// nodeByAddrLocked is the registered node whose data address is addr,
// or nil; the empty address names none.
func (nn *NameNode) nodeByAddrLocked(addr string) *nodeState {
	if addr == "" {
		return nil
	}
	for _, node := range nn.nodes {
		if node.addr == addr {
			return node
		}
	}
	return nil
}

func (nn *NameNode) handleCreate(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return nil, ErrNotReady
	}
	if req.Path == "" {
		return nil, fmt.Errorf("%w: empty path", ErrBadRequest)
	}
	if _, exists := nn.files[req.Path]; exists {
		return nil, fmt.Errorf("%w: %s", ErrFileExists, req.Path)
	}
	repl := req.Replication
	if repl <= 0 {
		repl = nn.cfg.DefaultReplication
	}
	minRacks := req.MinRacks
	if minRacks <= 0 {
		minRacks = nn.cfg.DefaultMinRacks
	}
	if minRacks > repl {
		return nil, fmt.Errorf("%w: minRacks %d > replication %d", ErrBadRequest, minRacks, repl)
	}
	if minRacks > nn.cfg.Racks {
		minRacks = nn.cfg.Racks
	}
	nn.insertFileLocked(&fileMeta{
		path:        req.Path,
		replication: repl,
		minRacks:    minRacks,
	})
	nn.markDirtyLocked()
	return nil, nil
}

func (nn *NameNode) handleAddBlock(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return nil, ErrNotReady
	}
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	if f.complete {
		return nil, fmt.Errorf("%w: %s", ErrFileComplete, req.Path)
	}
	// Every reader sizes its buffer from the length stored here.
	if req.Length < 1 || req.Length > nn.cfg.BlockSize {
		return nil, fmt.Errorf("%w: block length %d outside [1, %d]", ErrBadRequest, req.Length, nn.cfg.BlockSize)
	}
	if nn.nextBlock == math.MaxInt64 {
		return nil, fmt.Errorf("namenode: block IDs exhausted")
	}
	id := core.BlockID(nn.nextBlock)
	spec := core.BlockSpec{
		ID:          id,
		MinReplicas: f.replication,
		MinRacks:    f.minRacks,
	}
	if err := nn.placement.AddBlock(spec); err != nil {
		return nil, err
	}
	// A client colocated with a datanode (a task writing output) names
	// that datanode's data address; the first replica then lands locally
	// per Algorithm 4 and the HDFS default alike.
	writer := topology.NoMachine
	if n := nn.nodeByAddrLocked(req.DataAddr); n != nil {
		writer = topology.MachineID(n.id)
	}
	if err := nn.cfg.Placer.Place(nn.placement, id, f.replication, writer); err != nil {
		//lint:ignore errcheck rollback of the block added above; the place error is what matters
		_ = nn.placement.DeleteBlock(id)
		return nil, fmt.Errorf("namenode: place block: %w", err)
	}
	// The placer is topology-only: re-home whatever it put on dead or
	// draining machines.
	nn.healLocked(id, f.replication)
	if nn.placement.ReplicaCount(id) == 0 {
		//lint:ignore errcheck rollback of the block added above; the outer error is reported
		_ = nn.placement.DeleteBlock(id)
		return nil, fmt.Errorf("namenode: no healthy machine can host a new block")
	}
	nn.nextBlock++
	f.blocks = append(f.blocks, proto.BlockID(id))
	f.lengths = append(f.lengths, req.Length)
	nn.writing[proto.BlockID(id)] = nn.cfg.Clock()
	nn.markDirtyLocked()
	pipeline := nn.addrsLocked(nn.placement.Replicas(id))
	return &proto.Message{Type: proto.MsgOK, Block: proto.BlockID(id), Pipeline: pipeline}, nil
}

func (nn *NameNode) handleComplete(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	f.complete = true
	// The writer is done: a pipeline that came up short is now
	// reconcile's to repair.
	for _, b := range f.blocks {
		delete(nn.writing, b)
	}
	nn.markDirtyLocked()
	return nil, nil
}

func (nn *NameNode) handleGetLocations(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	now := nn.cfg.Clock().UnixNano()
	locs := make([]proto.BlockLocation, 0, len(f.blocks))
	for i, b := range f.blocks {
		nn.monitor.Record(core.BlockID(b), now)
		locs = append(locs, proto.BlockLocation{Block: b, Length: f.lengths[i], Addresses: nn.readAddrsLocked(b)})
	}
	return &proto.Message{Type: proto.MsgOK, Locations: locs}, nil
}

// readAddrsLocked lists the addresses a client should read block b from:
// replicas that are both desired and confirmed, falling back to any
// confirmed replica (mid-migration), then to the desired set
// (optimistic, right after a write).
func (nn *NameNode) readAddrsLocked(b proto.BlockID) []string {
	desired := nn.placement.Replicas(core.BlockID(b))
	holders := nn.confirmed[b]
	var addrs []string
	for _, m := range desired {
		if node := nn.nodes[m]; node.alive && holders[proto.NodeID(m)] {
			addrs = append(addrs, node.addr)
		}
	}
	if len(addrs) > 0 {
		return addrs
	}
	for n := range holders {
		if node := nn.nodes[n]; node.alive {
			addrs = append(addrs, node.addr)
		}
	}
	if len(addrs) > 0 {
		sort.Strings(addrs)
		return addrs
	}
	return nn.addrsLocked(desired)
}

func (nn *NameNode) addrsLocked(ms []topology.MachineID) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, nn.nodes[m].addr)
	}
	return out
}

func (nn *NameNode) handleSetReplication(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	k := req.Replication
	if k < f.minRacks || k < 1 {
		return nil, fmt.Errorf("%w: replication %d below minimum", ErrBadRequest, k)
	}
	if k > len(nn.nodes) {
		return nil, fmt.Errorf("%w: replication %d exceeds the cluster's %d nodes", ErrBadRequest, k, len(nn.nodes))
	}
	f.replication = k
	for _, b := range f.blocks {
		id := core.BlockID(b)
		// The new factor is the block's floor from here on — for fsck, the
		// optimizer and every later heal — and heal resizes to it.
		if err := nn.placement.SetMinReplicas(id, k); err != nil {
			return nil, fmt.Errorf("namenode: set replication: %w", err)
		}
		nn.healLocked(id, k)
	}
	nn.markDirtyLocked()
	return nil, nil
}

func (nn *NameNode) handleDelete(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	for _, b := range f.blocks {
		//lint:ignore errcheck idempotent delete; the walk deletes whatever copies remain
		_ = nn.placement.DeleteBlock(core.BlockID(b))
		nn.monitor.Forget(core.BlockID(b))
	}
	nn.removeFileLocked(req.Path)
	nn.markDirtyLocked()
	return nil, nil
}

// insertFileLocked adds f to the namespace: the map by path and the
// path-ordered index at its binary-search position. The caller has
// checked that the path is free.
func (nn *NameNode) insertFileLocked(f *fileMeta) {
	i, _ := slices.BinarySearchFunc(nn.order, f.path, comparePath)
	nn.order = slices.Insert(nn.order, i, f)
	nn.files[f.path] = f
}

// removeFileLocked drops path from the map and the path-ordered index.
func (nn *NameNode) removeFileLocked(path string) {
	if i, ok := slices.BinarySearchFunc(nn.order, path, comparePath); ok {
		nn.order = slices.Delete(nn.order, i, i+1)
	}
	delete(nn.files, path)
}

func comparePath(f *fileMeta, path string) int { return strings.Compare(f.path, path) }

// handleList replies with every file in path order: a walk of the
// index, no sort.
func (nn *NameNode) handleList() (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	files := make([]proto.FileInfo, len(nn.order))
	for i, f := range nn.order {
		files[i] = nn.fileInfoLocked(f)
	}
	return &proto.Message{Type: proto.MsgOK, Files: files}, nil
}

func (nn *NameNode) handleStat(req *proto.Message) (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	info := nn.fileInfoLocked(f)
	return &proto.Message{Type: proto.MsgOK, Files: []proto.FileInfo{info}}, nil
}

func (nn *NameNode) fileInfoLocked(f *fileMeta) proto.FileInfo {
	var length int64
	for _, n := range f.lengths {
		length += int64(n)
	}
	return proto.FileInfo{
		Path:        f.path,
		Blocks:      len(f.blocks),
		Length:      length,
		Replication: f.replication,
		Complete:    f.complete,
	}
}

func (nn *NameNode) handleClusterInfo() (*proto.Message, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nodes := make([]proto.NodeInfo, 0, len(nn.nodes))
	for _, n := range nn.nodes {
		blocks := 0
		if nn.placement != nil {
			blocks = nn.placement.Used(topology.MachineID(n.id))
		}
		nodes = append(nodes, proto.NodeInfo{
			ID:             n.id,
			Rack:           n.rack,
			Addr:           n.addr,
			Blocks:         blocks,
			Capacity:       n.capacity,
			Alive:          n.alive,
			Draining:       n.draining,
			Decommissioned: n.decommissioned,
		})
	}
	return &proto.Message{Type: proto.MsgOK, Nodes: nodes}, nil
}
