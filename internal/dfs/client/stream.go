package client

import (
	"fmt"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// readBlockOrdered drains one block over chunked read streams, trying
// its replicas in the given permutation and failing over between them
// at chunk granularity: bytes already verified stay in the buffer and
// the next replica is opened at the first missing offset, so a replica
// lost mid-stream costs only the tail.
func (c *Client) readBlockOrdered(loc proto.BlockLocation, order []int) ([]byte, error) {
	if len(loc.Addresses) == 0 {
		return nil, ErrNoReplica
	}
	var buf []byte
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
// len(*buf)) from one replica, appending only chunks whose checksums
// verify. On error the buffer keeps every verified byte so the caller
// can resume on another replica.
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
	for {
		msg, chunk, err := st.Recv()
		if err != nil {
			return err
		}
		if msg.Type != proto.MsgChunk {
			return fmt.Errorf("client: unexpected frame %q mid-read from %s", msg.Type, addr)
		}
		if msg.Checksum != proto.ChunkChecksum(chunk) {
			return fmt.Errorf("%w: block %d chunk %d from %s", ErrChecksum, block, msg.Seq, addr)
		}
		if msg.Offset != len(*buf) {
			return fmt.Errorf("client: block %d chunk at offset %d from %s, want %d", block, msg.Offset, addr, len(*buf))
		}
		if *buf == nil && msg.Length > 0 {
			// Length is peer-controlled: it sizes only the first
			// allocation, capped as proto caps frame reads; a longer
			// block grows as verified bytes arrive.
			*buf = make([]byte, 0, min(msg.Length, proto.EagerReadBytes))
		}
		*buf = append(*buf, chunk...)
		if msg.Eof {
			return nil
		}
	}
}
