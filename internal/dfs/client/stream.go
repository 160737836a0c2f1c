package client

import (
	"fmt"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// fileBuffer allocates a whole file once, sized from the namenode's
// per-block lengths, and returns it with one slot per block: the empty,
// capacity-capped window out[off:off:off+Length] that readBlockOrdered
// receives the block's chunks into. Every byte is thus read from the
// connection straight to its final place, with no copy.
// A length outside [0, proto.MaxPayloadBytes] fails before anything is
// allocated.
func fileBuffer(locs []proto.BlockLocation) (out []byte, slots [][]byte, err error) {
	total := 0
	for _, loc := range locs {
		if loc.Length < 0 || loc.Length > proto.MaxPayloadBytes {
			return nil, nil, fmt.Errorf("client: block %d length %d outside [0, %d]", loc.Block, loc.Length, proto.MaxPayloadBytes)
		}
		total += loc.Length
	}
	out = make([]byte, total)
	slots = make([][]byte, len(locs))
	off := 0
	for i, loc := range locs {
		slots[i] = out[off : off : off+loc.Length]
		off += loc.Length
	}
	return out, slots, nil
}

// readBlockOrdered drains one block over chunked read streams, trying
// its replicas in the given permutation and failing over between them
// at chunk granularity: bytes already verified stay in the buffer and
// the next replica is opened at the first missing offset, so a replica
// lost mid-stream costs only the tail.
//
// The slot (from fileBuffer) is where the block lands, and its capacity
// pins the block's length: a replica that runs past loc.Length or ends
// short of it fails like any other bad replica.
func (c *Client) readBlockOrdered(loc proto.BlockLocation, order []int, slot []byte) ([]byte, error) {
	if len(loc.Addresses) == 0 {
		return nil, ErrNoReplica
	}
	if loc.Length != cap(slot) {
		// Only a refetch can get here: the file was replaced while it
		// was being read.
		return nil, fmt.Errorf("client: block %d is now %d bytes, was %d when the read began", loc.Block, loc.Length, cap(slot))
	}
	buf := slot[:0]
	var lastErr error
	for _, i := range order {
		addr := loc.Addresses[i]
		err := c.streamTail(addr, loc.Block, &buf)
		if err == nil {
			return buf, nil
		}
		lastErr = err
		metrics.Default.Counter("dfs.client.read_failover").Inc()
	}
	return nil, fmt.Errorf("%w: %w", ErrNoReplica, lastErr)
}

// streamTail fetches the missing tail of a block (everything past
// len(*buf)) from one replica through proto.RecvChunks, which extends
// the buffer only over chunks that verify and keeps every one of them on
// error, so the caller can resume on another replica. cap(*buf) is the
// block's length according to the namenode, which the replica is held
// to.
func (c *Client) streamTail(addr string, block proto.BlockID, buf *[]byte) error {
	open := &proto.Message{
		Type: proto.MsgReadBlockStream, Block: block,
		ChunkSize: c.chunkSize, Offset: len(*buf),
	}
	st, err := c.openStream(addr, open, c.timeout)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := proto.RecvChunks(st, block, buf, nil); err != nil {
		return fmt.Errorf("client: read from %s: %w", addr, err)
	}
	return nil
}
