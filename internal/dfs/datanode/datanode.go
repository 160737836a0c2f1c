// Package datanode implements the storage node of the mini distributed
// file system: it stores block replicas, serves block reads and pipeline
// writes, sends heartbeats to the namenode, and executes the
// replicate/delete commands the namenode piggybacks on heartbeat
// responses — the same division of labour as an HDFS datanode
// (Section II of the paper).
package datanode

import (
	"errors"
	"fmt"
	"net"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/retrypolicy"
)

// Config parameterizes a datanode.
type Config struct {
	// NameNodeAddr is the namenode's control address.
	NameNodeAddr string
	// Rack is the rack this node lives in.
	Rack int
	// CapacityBlocks bounds how many block replicas the node stores.
	CapacityBlocks int
	// HeartbeatInterval defaults to 200ms (fast, suited to tests and the
	// loopback testbed).
	HeartbeatInterval time.Duration
	// Timeout bounds individual RPCs.
	Timeout time.Duration
	// ListenAddr defaults to 127.0.0.1:0.
	ListenAddr string
	// DataDir, when set, persists blocks (checksummed, crash-safe) and
	// the node's namespace ID as files here; empty keeps them in memory.
	DataDir string
	// Call overrides the RPC transport (the fault-injection harness
	// passes an Injector.CallFrom here); nil means proto.Call.
	Call proto.CallFunc
	// OpenStream overrides the chunked data-path transport used to
	// forward pipeline writes downstream and to send replication
	// transfers (the fault-injection harness passes an
	// Injector.StreamFrom here); nil means proto.OpenStream.
	OpenStream proto.OpenStreamFunc
	// Retry is the backoff policy for registration and replication
	// transfers; the zero value means retrypolicy.Default.
	Retry retrypolicy.Policy
	// WrapStore, when set, decorates the node's block store before use —
	// a fault-injection hook for byzantine store behaviour.
	WrapStore func(BlockStore) BlockStore
	// Clock, when set, is the node's clock, and its owner calls Tick at
	// each TickDue instead of a heartbeat loop; Retry is then one attempt,
	// as backing off waits for nothing. nil means the wall clock.
	Clock func() time.Time
}

// Errors returned by the datanode.
var (
	ErrBlockNotFound = errors.New("datanode: block not found")
	ErrStoreFull     = errors.New("datanode: store at capacity")
	ErrClosed        = errors.New("datanode: closed")
)

// DataNode is a running storage node.
type DataNode struct {
	cfg     Config
	id      proto.NodeID
	ns      uint64 // the namespace ID, sent on every message to the namenode
	addr    string // the data address, known before serving starts
	server  *proto.Server
	store   BlockStore
	free    *blockBufs // block buffers shared with the store (DESIGN.md §15.6)
	call    proto.CallFunc
	open    proto.OpenStreamFunc
	retry   retrypolicy.Policy
	tracker *reportTracker
	// wake asks the heartbeat loop for a report now instead of at the
	// next tick. It has one slot, so a wake sent while one is pending
	// folds into it.
	wake chan struct{}
	due  time.Time // the next report of a Config.Clock's owner

	stop chan struct{}
	done chan struct{}
}

// Start launches a datanode: it listens for data transfers, registers
// with the namenode, and begins heartbeating.
func Start(cfg Config) (*DataNode, error) {
	if cfg.NameNodeAddr == "" {
		return nil, errors.New("datanode: NameNodeAddr required")
	}
	if cfg.CapacityBlocks <= 0 {
		return nil, errors.New("datanode: CapacityBlocks must be positive")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = proto.DefaultTimeout
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Call == nil {
		cfg.Call = proto.Call
	}
	if cfg.OpenStream == nil {
		cfg.OpenStream = proto.OpenStream
	}
	if cfg.Clock != nil {
		cfg.Retry = retrypolicy.Policy{MaxAttempts: 1}
	}
	if cfg.Retry.MaxAttempts == 0 && cfg.Retry.BaseDelay == 0 {
		cfg.Retry = retrypolicy.Default
	}
	if cfg.Retry.Retryable == nil {
		cfg.Retry.Retryable = proto.Transient
	}
	free := &blockBufs{}
	var store BlockStore
	var ns uint64
	if cfg.DataDir != "" {
		ds, err := newDiskStore(cfg.DataDir, cfg.CapacityBlocks, free)
		if err == nil {
			ns, err = readNamespace(cfg.DataDir)
		}
		if err != nil {
			return nil, err
		}
		store = ds
	} else {
		store = newMemStore(cfg.CapacityBlocks, free)
	}
	if cfg.WrapStore != nil {
		store = cfg.WrapStore(store)
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("datanode: listen: %w", err)
	}
	dn := &DataNode{
		cfg:     cfg,
		addr:    ln.Addr().String(),
		store:   store,
		free:    free,
		call:    cfg.Call,
		open:    cfg.OpenStream,
		retry:   cfg.Retry,
		tracker: newReportTracker(),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Registration retries under the backoff policy: a node booting
	// while the namenode is briefly unreachable joins as soon as the
	// window clears instead of failing its whole startup. Serving starts
	// once the node knows its id, which every stream handler reads;
	// a peer that connects earlier waits in the listen backlog. A node
	// bound to no namespace (ns 0) adopts, and records, the namenode's.
	var resp *proto.Message
	err = dn.retryDo("dfs.datanode.register_retries", func() error {
		var callErr error
		resp, _, callErr = dn.call(cfg.NameNodeAddr, &proto.Message{
			Type:      proto.MsgRegister,
			DataAddr:  dn.addr,
			Rack:      cfg.Rack,
			Capacity:  cfg.CapacityBlocks,
			Namespace: ns,
		}, nil, cfg.Timeout)
		return callErr
	})
	if err == nil && cfg.DataDir != "" && resp.Namespace != ns {
		err = writeNamespace(cfg.DataDir, resp.Namespace)
	}
	if err != nil {
		//lint:ignore errcheck best effort: the register error is what matters
		_ = ln.Close()
		return nil, fmt.Errorf("datanode: register: %w", err)
	}
	dn.id, dn.ns = resp.Node, resp.Namespace
	dn.server = proto.ServeStreams(ln, dn.handle, dn.handleStream, cfg.Timeout)

	if cfg.Clock != nil {
		dn.due = cfg.Clock().Add(heartbeatPhase(dn.id, cfg.HeartbeatInterval))
		close(dn.done)
	} else {
		go dn.heartbeatLoop()
	}
	return dn, nil
}

// ID returns the namenode-assigned node ID.
func (dn *DataNode) ID() proto.NodeID { return dn.id }

// Addr returns the node's data-transfer address.
func (dn *DataNode) Addr() string { return dn.addr }

// NumBlocks reports how many replicas the node currently stores.
func (dn *DataNode) NumBlocks() int { return dn.store.Len() }

// Blocks lists the replicas the node currently stores (the harness uses
// this to pick corruption victims).
func (dn *DataNode) Blocks() []proto.BlockID { return dn.store.List() }

// retryDo runs op under the node's retry policy, counting retries into
// the named metric.
func (dn *DataNode) retryDo(counter string, op func() error) error {
	p := dn.retry
	user := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		metrics.Default.Counter(counter).Inc()
		if user != nil {
			user(attempt, err, delay)
		}
	}
	return p.Do(op)
}

// HasBlock reports whether the node stores block id.
func (dn *DataNode) HasBlock(id proto.BlockID) bool { return dn.store.Has(id) }

// CorruptBlock overwrites a stored replica's bytes in place WITHOUT
// updating its checksum — a fault-injection hook for tests; subsequent
// reads fail with ErrCorrupt.
func (dn *DataNode) CorruptBlock(id proto.BlockID) error {
	data, err := dn.store.Get(id)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("datanode: block %d empty", id)
	}
	data[0] ^= 0xFF
	c, ok := dn.store.(interface {
		corrupt(proto.BlockID, []byte) error
	})
	if !ok {
		return fmt.Errorf("datanode: store does not support fault injection")
	}
	return c.corrupt(id, data)
}

// Close stops the heartbeat loop, if it runs, and the data server.
func (dn *DataNode) Close() error {
	select {
	case <-dn.stop:
		return ErrClosed
	default:
	}
	close(dn.stop)
	<-dn.done
	return dn.server.Close()
}

// handle answers the request/response plane, which carries nothing on a
// datanode: block bytes arrive and leave only on streams (handleStream).
func (dn *DataNode) handle(req *proto.Message, _ []byte) (*proto.Message, []byte) {
	return proto.ErrorMessage(fmt.Errorf("datanode: unexpected message %q", req.Type)), nil
}

// evictCorrupt deletes a checksum-failed local replica and notes the
// deletion for a prompt report, shrinking the namenode's confirmed set
// so the reconcile loop re-replicates from a healthy holder. Without this a corrupt node
// keeps getting picked as a read target or replication source and the
// bad replica never heals.
func (dn *DataNode) evictCorrupt(id proto.BlockID) {
	if dn.store.Delete(id) {
		metrics.Default.Counter("dfs.datanode.corrupt_evicted").Inc()
		dn.noteDeleted(id)
	}
}

// noteDeleted records a deletion in the report tracker and wakes the
// heartbeat loop, which sends it in a delta right away instead of at
// the next tick. The wake never blocks: one already pending covers this
// deletion too, so a whole CmdDelete batch costs one report.
func (dn *DataNode) noteDeleted(id proto.BlockID) {
	dn.tracker.noteDeleted(id)
	select {
	case dn.wake <- struct{}{}:
	default:
	}
}

// heartbeatLoop sends a heartbeat every tick and whenever a deletion
// wakes it — incremental block reports with a periodic full-report
// safety net — and executes any commands the namenode returns. The
// first tick, which carries the boot report, comes at the node's phase
// (heartbeatPhase); the ticks after it, one interval apart.
func (dn *DataNode) heartbeatLoop() {
	defer close(dn.done)
	first := time.NewTimer(heartbeatPhase(dn.id, dn.cfg.HeartbeatInterval))
	defer first.Stop()
	ticker := time.NewTicker(dn.cfg.HeartbeatInterval)
	ticker.Stop() // runs from the first tick on
	defer ticker.Stop()
	for {
		select {
		case <-dn.stop:
			return
		case <-first.C:
			ticker.Reset(dn.cfg.HeartbeatInterval)
			dn.heartbeatOnce(false)
		case <-ticker.C:
			dn.heartbeatOnce(false)
		case <-dn.wake:
			dn.heartbeatOnce(true)
		}
	}
}

// TickDue is when Config.Clock's owner next calls Tick.
func (dn *DataNode) TickDue() time.Time { return dn.due }

// Tick is the heartbeat loop's tick; a deletion's wake waits for it.
func (dn *DataNode) Tick() {
	dn.due = dn.due.Add(dn.cfg.HeartbeatInterval)
	dn.heartbeatOnce(false)
}

// heartbeatPhase is when, in (0, interval], node id ticks first. The
// datanodes of a cluster boot within milliseconds of each other; on one
// shared phase all their reports — every fullReportEvery-th tick all
// their full reports — would reach the namenode's lock together. Node
// id's phase is interval·(1 − frac(id/φ)), the golden-ratio sequence:
// ids 0..n−1 get n distinct phases whose gaps take at most three sizes,
// the largest under 2·interval/n. Node 0 ticks first a whole interval
// after boot, as every node did before phases.
func heartbeatPhase(id proto.NodeID, interval time.Duration) time.Duration {
	// frac(id/φ) in 32-bit fixed point: 2^32/φ is 0x9E3779B9.
	frac := float64(uint32(uint64(id)*0x9E3779B9)) / (1 << 32)
	return interval - time.Duration(frac*float64(interval))
}

// heartbeatOnce sends one block report, a MsgHeartbeatDelta. The
// steady state carries only the blocks received/deleted since the last
// acknowledged report plus an xor-digest of the full local set; a full
// report — FullReport set, every held block in Received — goes out on
// boot, when the namenode asks for one (digest mismatch or rejoin), and
// every fullReportEvery ticks as a safety net. Wire cost is O(changed
// blocks) instead of O(all blocks) per tick (DESIGN.md §15.5). A woken
// report is the one a deletion asked for; it leaves the full-report
// count alone, so full reports keep their tick cadence.
func (dn *DataNode) heartbeatOnce(woken bool) {
	// A wake that arrived since the loop's select is served by this
	// report: its deletion is already in the tracker, so the drain
	// below carries it.
	select {
	case <-dn.wake:
	default:
	}
	r := dn.tracker.drain(dn.store.List, woken)
	req := &proto.Message{
		Type: proto.MsgHeartbeatDelta, Node: dn.id, FullReport: r.full,
		Digest: r.digest, Received: r.received, Deleted: r.deleted, Namespace: dn.ns,
	}
	if r.full {
		metrics.Default.Counter("dfs.datanode.report_full").Inc()
	} else {
		metrics.Default.Counter("dfs.datanode.report_delta").Inc()
	}
	resp, _, err := dn.call(dn.cfg.NameNodeAddr, req, nil, dn.cfg.Timeout)
	dn.tracker.ack(r, err == nil)
	if err != nil {
		// Namenode briefly unreachable (or the heartbeat was dropped by
		// fault injection); ack kept the report (a delta merged back, a
		// full report still due) and the next tick retries it —
		// heartbeats are the retry loop, so no backoff here.
		metrics.Default.Counter("dfs.datanode.heartbeat_failures").Inc()
		return
	}
	if resp.FullReport {
		// The namenode detected divergence (or wants a post-rejoin
		// baseline): escalate the next heartbeat to a full report.
		dn.tracker.forceFullNext()
		metrics.Default.Counter("dfs.datanode.report_resync").Inc()
	}
	for _, cmd := range resp.Commands {
		dn.execute(cmd)
	}
}

// execute runs one namenode command synchronously. Commands arrive on
// report responses and the heartbeat loop runs each batch before it
// sends the next report, so at most one batch is in flight per node.
func (dn *DataNode) execute(cmd proto.Command) {
	switch cmd.Kind {
	case proto.CmdReplicate:
		data, err := dn.store.Get(cmd.Block)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				// A corrupt source can never satisfy this command; evict
				// it, so the report that follows has the namenode
				// re-source from a healthy holder instead of re-picking
				// this node forever.
				dn.evictCorrupt(cmd.Block)
			}
			return // replica unusable; the namenode will reassign
		}
		// A write stream with no downstream pipeline. Bounded retry: the
		// target may be inside a latency spike or just recovering. If all
		// attempts fail the namenode re-issues the command after its
		// inflight TTL.
		err = dn.retryDo("dfs.datanode.replicate_retries", func() error {
			return proto.SendBlock(dn.open, cmd.Target, cmd.Block, nil, data, proto.DefaultChunkSize, dn.cfg.Timeout)
		})
		if err != nil {
			metrics.Default.Counter("dfs.datanode.replicate_dropped").Inc()
		}
		// Get's copy was this command's alone and every send has returned.
		dn.free.put(data)
		// The target is the head of this one-hop write, so it reports
		// its own MsgBlockReceived.
	case proto.CmdDelete:
		if dn.store.Delete(cmd.Block) {
			dn.noteDeleted(cmd.Block)
		}
	}
}

// reportReceived is a pipeline head's one arrival report for a block:
// the replica landed here, and on each address in vouched, the
// downstream hops whose ack the head checked (DESIGN.md §15.4). One
// attempt only — it runs on the write path, where retry backoff would
// stall the pipeline ack; a lost report is counted and repaired by each
// holder's next delta report.
func (dn *DataNode) reportReceived(id proto.BlockID, vouched []string) {
	if _, _, err := dn.call(dn.cfg.NameNodeAddr, &proto.Message{
		Type:      proto.MsgBlockReceived,
		Node:      dn.id,
		Block:     id,
		Pipeline:  vouched,
		Namespace: dn.ns,
	}, nil, dn.cfg.Timeout); err != nil {
		metrics.Default.Counter("dfs.datanode.report_dropped").Inc()
	}
}
