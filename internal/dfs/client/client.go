// Package client is the user-facing API of the mini distributed file
// system: create/write/read/delete files, adjust replication factors,
// and inspect the cluster — the operations the paper's testbed
// experiment drives against its HDFS prototype.
package client

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/par"
	"aurora/internal/retrypolicy"
)

// Errors returned by the client.
var (
	ErrNoReplica = errors.New("client: no replica reachable")
	ErrEmptyFile = errors.New("client: empty write")
	// ErrChecksum is proto.ErrChecksum, which a read wraps when a
	// replica sent a chunk that failed its CRC.
	ErrChecksum = proto.ErrChecksum
)

// Client talks to one namenode. It is safe for concurrent use (it holds
// no mutable state beyond the RNG used for replica choice, which is
// guarded).
type Client struct {
	namenode  string
	blockSize int
	timeout   time.Duration
	// LocalDataAddr, when set, identifies the colocated datanode so the
	// first replica of written blocks lands locally (task-written
	// blocks, Section V's Algorithm 4).
	localDataAddr string
	rng           *lockedRand
	call          proto.CallFunc
	retry         retrypolicy.Policy

	// Chunked data path (DESIGN.md §15). readAhead is how many extra
	// blocks Read keeps in flight while the current one drains.
	chunkSize  int
	readAhead  int
	openStream proto.OpenStreamFunc
}

// Option configures a Client.
type Option func(*Client)

// WithBlockSize overrides the client-side split size in bytes.
func WithBlockSize(n int) Option {
	return func(c *Client) { c.blockSize = n }
}

// WithTimeout overrides the per-RPC timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithLocalDataNode marks this client as colocated with the datanode at
// addr.
func WithLocalDataNode(addr string) Option {
	return func(c *Client) { c.localDataAddr = addr }
}

// WithSeed makes replica selection deterministic.
func WithSeed(seed uint64) Option {
	return func(c *Client) { c.rng = newLockedRand(seed) }
}

// WithCall overrides the transport of namenode RPCs (the fault-injection
// harness passes an Injector.CallFrom here). Block bytes never travel
// on it; see WithOpenStream.
func WithCall(fn proto.CallFunc) Option {
	return func(c *Client) { c.call = fn }
}

// WithOpenStream overrides the stream transport that carries every
// block write and read (the fault-injection harness passes an
// Injector.StreamFrom here).
func WithOpenStream(fn proto.OpenStreamFunc) Option {
	return func(c *Client) { c.openStream = fn }
}

// WithChunkSize sets the frame payload size in bytes for block writes
// and reads (DESIGN.md §15). n <= 0 means proto.DefaultChunkSize: the
// sender of every chunk (proto.SendBlock for writes, the datanode for
// reads) applies the default.
func WithChunkSize(n int) Option {
	return func(c *Client) { c.chunkSize = n }
}

// WithReadAhead sets how many blocks Read prefetches beyond the one
// currently draining (0 = strictly sequential). Replica choices stay
// deterministic under WithSeed: the failover permutations are drawn in
// block order before the prefetch workers fan out.
func WithReadAhead(n int) Option {
	return func(c *Client) { c.readAhead = n }
}

// WithRetry overrides the retry/backoff policy applied to namenode RPCs
// and pipeline writes. The zero Policy disables retries entirely; the
// default is retrypolicy.Default. A nil Retryable on the supplied
// policy is filled in with TransientRPC.
func WithRetry(p retrypolicy.Policy) Option {
	return func(c *Client) { c.retry = p }
}

// New creates a client for the namenode at addr.
func New(namenodeAddr string, opts ...Option) *Client {
	c := &Client{
		namenode:   namenodeAddr,
		blockSize:  1 << 20,
		timeout:    proto.DefaultTimeout,
		rng:        newLockedRand(uint64(time.Now().UnixNano())),
		call:       proto.Call,
		retry:      retrypolicy.Default,
		chunkSize:  proto.DefaultChunkSize,
		readAhead:  1,
		openStream: proto.OpenStream,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// TransientRPC classifies RPC errors for retry purposes as
// proto.Transient does, except that an exhausted read is always worth
// retrying: the location set can change between attempts (recovery,
// re-replication), whatever the last replica's error in its chain.
func TransientRPC(err error) bool {
	return errors.Is(err, ErrNoReplica) || proto.Transient(err)
}

// retryPolicy returns the client's policy with the classifier defaulted
// and retry metrics attached.
func (c *Client) retryPolicy() retrypolicy.Policy {
	p := c.retry
	if p.Retryable == nil {
		p.Retryable = TransientRPC
	}
	user := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		metrics.Default.Counter("dfs.client.retries").Inc()
		if user != nil {
			user(attempt, err, delay)
		}
	}
	return p
}

// callNN issues one namenode RPC under the retry policy. Retries assume
// the failed attempt did not reach the namenode — true for injected
// faults (which fail at the caller) and refused connections; a response
// lost in flight can surface a duplicate-application error instead.
func (c *Client) callNN(req *proto.Message) (*proto.Message, error) {
	var resp *proto.Message
	err := c.retryPolicy().Do(func() error {
		var callErr error
		resp, _, callErr = c.call(c.namenode, req, nil, c.timeout)
		return callErr
	})
	return resp, err
}

// Create writes data as a new file with the given replication factor
// (0 = cluster default). The file is split into blocks of the client's
// block size and each block is written through its replication pipeline.
func (c *Client) Create(path string, data []byte, replication int) error {
	if len(data) == 0 {
		return ErrEmptyFile
	}
	req := &proto.Message{Type: proto.MsgCreateFile, Path: path, Replication: replication}
	if _, err := c.callNN(req); err != nil {
		return fmt.Errorf("client: create %s: %w", path, err)
	}
	for off := 0; off < len(data); off += c.blockSize {
		end := off + c.blockSize
		if end > len(data) {
			end = len(data)
		}
		if err := c.writeBlock(path, data[off:end]); err != nil {
			return fmt.Errorf("client: write %s block at %d: %w", path, off, err)
		}
	}
	if _, err := c.callNN(&proto.Message{Type: proto.MsgCompleteFile, Path: path}); err != nil {
		return fmt.Errorf("client: complete %s: %w", path, err)
	}
	return nil
}

func (c *Client) writeBlock(path string, chunk []byte) error {
	resp, err := c.callNN(&proto.Message{
		Type:     proto.MsgAddBlock,
		Path:     path,
		Length:   len(chunk),
		DataAddr: c.localDataAddr,
	})
	if err != nil {
		return err
	}
	if len(resp.Pipeline) == 0 {
		return fmt.Errorf("client: namenode returned empty pipeline for block %d", resp.Block)
	}
	// Pipeline writes retry under the same policy: block puts are
	// idempotent (same id, same bytes), so a duplicate is harmless. The
	// head forwards chunk i downstream while receiving chunk i+1, so the
	// client spends ~1 block of bandwidth regardless of the replication
	// factor and the pipeline depth only adds per-chunk latency.
	err = c.retryPolicy().Do(func() error {
		return proto.SendBlock(c.openStream, resp.Pipeline[0], resp.Block, resp.Pipeline[1:], chunk, c.chunkSize, c.timeout)
	})
	if err != nil {
		return fmt.Errorf("client: pipeline head %s: %w", resp.Pipeline[0], err)
	}
	return nil
}

// Read fetches the whole file, reading each block from a random replica
// and failing over to the others. When every replica of a block fails —
// its holders crashed, or the locations are stale because the namenode
// re-homed replicas since they were fetched — Read refetches the
// block's locations and tries again under the retry policy, so reads
// issued during a fault window eventually succeed once the namenode
// re-replicates. The file is assembled in place: one buffer sized from
// the namenode's block lengths, each block streamed into its own slot.
func (c *Client) Read(path string) ([]byte, error) {
	locs, err := c.Locations(path)
	if err != nil {
		return nil, err
	}
	// Replica failover orders are drawn sequentially in block order
	// BEFORE the prefetch workers fan out, so WithSeed pins replica
	// selection no matter how the workers interleave.
	orders := make([][]int, len(locs))
	for i := range locs {
		orders[i] = c.rng.perm(len(locs[i].Addresses))
	}
	out, slots, err := fileBuffer(locs)
	if err != nil {
		return nil, fmt.Errorf("client: read %s: %w", path, err)
	}
	errs := make([]error, len(locs))
	par.ForEach(len(locs), c.readAhead+1, func(i int) {
		errs[i] = c.readBlockFresh(path, i, locs[i], orders[i], slots[i])
	})
	for i := range locs {
		if errs[i] != nil {
			return nil, fmt.Errorf("client: read %s block %d: %w", path, locs[i].Block, errs[i])
		}
	}
	return out, nil
}

// readBlockFresh reads block idx of the file into slot, refetching its
// locations between attempts when every known replica fails. order is
// the pre-drawn replica permutation for the first attempt; retries
// (whose location set may have changed) draw a fresh one.
func (c *Client) readBlockFresh(path string, idx int, loc proto.BlockLocation, order []int, slot []byte) error {
	return c.retryPolicy().Do(func() error {
		if len(order) != len(loc.Addresses) {
			order = c.rng.perm(len(loc.Addresses))
		}
		_, readErr := c.readBlockOrdered(loc, order, slot)
		order = nil
		if readErr == nil {
			return nil
		}
		metrics.Default.Counter("dfs.client.location_refetch").Inc()
		if locs, locErr := c.Locations(path); locErr == nil && idx < len(locs) {
			loc = locs[idx]
		}
		return readErr
	})
}

// Locations asks the namenode where each block of the file lives. Every
// call counts as one access in the namenode's usage monitor, exactly as
// Aurora's BlockMap instrumentation counts accesses in the prototype.
func (c *Client) Locations(path string) ([]proto.BlockLocation, error) {
	resp, err := c.callNN(&proto.Message{Type: proto.MsgGetLocations, Path: path})
	if err != nil {
		return nil, fmt.Errorf("client: locations %s: %w", path, err)
	}
	return resp.Locations, nil
}

// ReadBlockFrom streams one block from the replicas listed in loc,
// trying them in the order given — for callers that have already chosen
// where to read (a task scheduled next to a replica) and so bypass the
// client's random replica choice. loc.Length, as the namenode gave it,
// sizes the result and is what every replica is held to.
func (c *Client) ReadBlockFrom(loc proto.BlockLocation) ([]byte, error) {
	_, slots, err := fileBuffer([]proto.BlockLocation{loc})
	if err != nil {
		return nil, err
	}
	order := make([]int, len(loc.Addresses))
	for i := range order {
		order[i] = i
	}
	return c.readBlockOrdered(loc, order, slots[0])
}

// SetReplication changes the file's replication factor at run time — the
// HDFS API Aurora drives for dynamic replication.
func (c *Client) SetReplication(path string, k int) error {
	_, err := c.callNN(&proto.Message{
		Type:        proto.MsgSetRepl,
		Path:        path,
		Replication: k,
	})
	if err != nil {
		return fmt.Errorf("client: set replication %s: %w", path, err)
	}
	return nil
}

// Delete removes the file; replicas are reaped lazily by the namenode.
func (c *Client) Delete(path string) error {
	if _, err := c.callNN(&proto.Message{Type: proto.MsgDeleteFile, Path: path}); err != nil {
		return fmt.Errorf("client: delete %s: %w", path, err)
	}
	return nil
}

// List returns metadata for all files, in path order.
func (c *Client) List() ([]proto.FileInfo, error) {
	resp, err := c.callNN(&proto.Message{Type: proto.MsgListFiles})
	if err != nil {
		return nil, fmt.Errorf("client: list: %w", err)
	}
	return resp.Files, nil
}

// Stat returns metadata for one file.
func (c *Client) Stat(path string) (proto.FileInfo, error) {
	resp, err := c.callNN(&proto.Message{Type: proto.MsgStatFile, Path: path})
	if err != nil {
		return proto.FileInfo{}, fmt.Errorf("client: stat %s: %w", path, err)
	}
	if len(resp.Files) != 1 {
		return proto.FileInfo{}, fmt.Errorf("client: stat %s: malformed response", path)
	}
	return resp.Files[0], nil
}

// Fsck returns the namenode's health report: desired-versus-confirmed
// replica accounting and the reconcile backlog.
func (c *Client) Fsck() (proto.HealthReport, error) {
	resp, err := c.callNN(&proto.Message{Type: proto.MsgFsck})
	if err != nil {
		return proto.HealthReport{}, fmt.Errorf("client: fsck: %w", err)
	}
	if resp.Health == nil {
		return proto.HealthReport{}, fmt.Errorf("client: fsck: empty report")
	}
	return *resp.Health, nil
}

// Decommission asks the namenode to gracefully drain a datanode; poll
// ClusterInfo until it reports Decommissioned before stopping the
// process.
func (c *Client) Decommission(node proto.NodeID) error {
	if _, err := c.callNN(&proto.Message{Type: proto.MsgDecommission, Node: node}); err != nil {
		return fmt.Errorf("client: decommission node %d: %w", node, err)
	}
	return nil
}

// ClusterInfo returns per-datanode state.
func (c *Client) ClusterInfo() ([]proto.NodeInfo, error) {
	resp, err := c.callNN(&proto.Message{Type: proto.MsgClusterInfo})
	if err != nil {
		return nil, fmt.Errorf("client: cluster info: %w", err)
	}
	return resp.Nodes, nil
}

// lockedRand is a tiny concurrency-safe wrapper over rand.Rand.
type lockedRand struct {
	ch chan *rand.Rand
}

func newLockedRand(seed uint64) *lockedRand {
	ch := make(chan *rand.Rand, 1)
	ch <- rand.New(rand.NewPCG(seed, seed^0xc11e57))
	return &lockedRand{ch: ch}
}

func (l *lockedRand) perm(n int) []int {
	r := <-l.ch
	p := r.Perm(n)
	l.ch <- r
	return p
}
