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
// len(*buf)) from one replica, extending the buffer only over chunks
// whose checksums verify. On error the buffer keeps every verified byte
// so the caller can resume on another replica. cap(*buf) is the block's
// length according to the namenode, which the replica is held to.
func (c *Client) streamTail(addr string, block proto.BlockID, buf *[]byte) error {
	want := cap(*buf)
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
		// A chunk that fits the slot lands in it, at the first missing
		// byte; one that does not is refused below.
		msg, chunk, err := st.RecvInto(*buf)
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
		if end := len(*buf) + len(chunk); end > want || (msg.Eof && end != want) {
			return fmt.Errorf("client: block %d from %s reaches byte %d (eof=%t), the namenode says %d", block, addr, end, msg.Eof, want)
		}
		*buf = (*buf)[:len(*buf)+len(chunk)] // chunk is the slot's next bytes
		if msg.Eof {
			return nil
		}
	}
}
