package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
)

// clusterSpec is the shape of the in-process loopback cluster one
// workload runs against.
type clusterSpec struct {
	Nodes     int    `json:"nodes"`
	Racks     int    `json:"racks"`
	Disk      bool   `json:"disk_store"`
	BlockSize int    `json:"block_size"`
	Shards    int    `json:"shards"`
	Predictor string `json:"predictor,omitempty"`
	// Window is the usage monitor's sliding window; the optimizer
	// workload shortens it so popularity follows the replayed scenario
	// within the run.
	Window time.Duration `json:"window_ns"`
}

const (
	chunkSize    = 64 << 10
	readAhead    = 1
	replication  = 3
	nodeCapacity = 8192
	convergeWait = 30 * time.Second
)

// cluster is one namenode, its datanodes and the scratch directory of
// their disk stores, all inside the benchmark process.
type cluster struct {
	spec clusterSpec
	nn   *namenode.NameNode
	dns  []*datanode.DataNode
	dir  string
}

// boot starts the cluster and waits until every datanode registered.
// scratch is where disk stores go; tr may be nil.
func boot(spec clusterSpec, scratch string, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec}
	ok := false
	defer func() {
		if !ok {
			//lint:ignore errcheck already failing; the boot error is the one to report
			_ = c.close()
		}
	}()
	if spec.Disk {
		dir, err := os.MkdirTemp(scratch, "dn-")
		if err != nil {
			return nil, fmt.Errorf("bench: scratch dir: %w", err)
		}
		c.dir = dir
	}
	buckets := 2
	nn, err := namenode.Start(namenode.Config{
		ExpectedNodes: spec.Nodes,
		Racks:         spec.Racks,
		BlockSize:     spec.BlockSize,
		WindowBucket:  spec.Window / time.Duration(buckets),
		WindowBuckets: buckets,
		Shards:        spec.Shards,
		Predictor:     spec.Predictor,
		Seed:          1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: start namenode: %w", err)
	}
	c.nn = nn
	for i := 0; i < spec.Nodes; i++ {
		cfg := datanode.Config{
			NameNodeAddr:   nn.Addr(),
			Rack:           i % spec.Racks,
			CapacityBlocks: nodeCapacity,
		}
		if spec.Disk {
			cfg.DataDir = filepath.Join(c.dir, fmt.Sprintf("node%02d", i))
		}
		var tap *nodeTap
		if tr != nil {
			tap = &nodeTap{t: tr}
			cfg.Call, cfg.OpenStream = tap.call, tap.open
			cfg.WrapStore = func(s datanode.BlockStore) datanode.BlockStore {
				return tracedStore{BlockStore: s, n: tap}
			}
		}
		dn, err := datanode.Start(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: start datanode %d: %w", i, err)
		}
		if tap != nil {
			tap.addr.Store(dn.Addr())
		}
		c.dns = append(c.dns, dn)
	}
	if err := nn.WaitReady(10 * time.Second); err != nil {
		return nil, fmt.Errorf("bench: cluster not ready: %w", err)
	}
	ok = true
	return c, nil
}

// newClient builds one worker's client. Workers never share a client:
// each has its own replica-choice RNG, so the op sequence of one does
// not depend on how the other's requests interleave.
func (c *cluster) newClient(seed uint64, extra ...client.Option) *client.Client {
	opts := []client.Option{
		client.WithBlockSize(c.spec.BlockSize),
		client.WithSeed(seed),
		client.WithChunkSize(chunkSize),
		client.WithReadAhead(readAhead),
	}
	return client.New(c.nn.Addr(), append(opts, extra...)...)
}

// settle waits for the reconcile loop to carry out every pending copy
// and deletion and returns how long that took.
func (c *cluster) settle() (time.Duration, error) {
	start := time.Now()
	if err := c.nn.WaitConverged(convergeWait); err != nil {
		return time.Since(start), fmt.Errorf("bench: %w", err)
	}
	return time.Since(start), nil
}

// drain waits, after settle, until the commands the reconcile loop
// queued meanwhile have reached the datanodes on their next heartbeats,
// which is when fsck can call the cluster healthy.
func (c *cluster) drain() {
	for start := time.Now(); !c.nn.Health().Healthy && time.Since(start) < convergeWait; {
		time.Sleep(20 * time.Millisecond)
	}
}

// close stops every node and removes the disk stores.
func (c *cluster) close() error {
	var errs []error
	for _, dn := range c.dns {
		errs = append(errs, dn.Close())
	}
	if c.nn != nil {
		errs = append(errs, c.nn.Close())
	}
	if c.dir != "" {
		errs = append(errs, os.RemoveAll(c.dir))
	}
	return errors.Join(errs...)
}
