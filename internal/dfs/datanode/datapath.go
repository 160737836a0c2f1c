package datanode

import (
	"errors"
	"fmt"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// handleStream dispatches one chunked data-path exchange (DESIGN.md
// §15). Stream handlers own the conversation; the server closes the
// connection when they return.
func (dn *DataNode) handleStream(open *proto.Message, _ []byte, st proto.BlockStream) {
	switch open.Type {
	case proto.MsgWriteBlockStream:
		dn.handleWriteStream(open, st)
	case proto.MsgReadBlockStream:
		dn.handleReadStream(open, st)
	default:
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: unexpected stream opening %q", open.Type)), nil)
	}
}

// handleWriteStream receives a block as sequenced chunks and pipelines
// them downstream: chunk i is forwarded to the next node while chunk
// i+1 is still arriving, so a k-deep pipeline costs ~1 block transfer
// plus k chunk latencies instead of k sequential block hops. The commit
// signal is the tail ack relayed back up the chain: each node answers
// MsgStreamAck only after its own store succeeded AND its downstream
// ack arrived.
//
// CONTRACT (DESIGN.md §15, "failure semantics"): the local replica is
// stored durably and reported to the namenode BEFORE the downstream
// outcome is known. A mid-pipeline failure therefore surfaces an error
// to the writer while upstream nodes already hold confirmed copies —
// the write is not atomic across the pipeline. The reconcile loop sees
// the under-replicated block in the confirmed set and repairs the short
// pipeline; TestPipelineFailureReconcileRepairs pins this.
func (dn *DataNode) handleWriteStream(open *proto.Message, st proto.BlockStream) {
	// Length is peer-controlled and sizes the receive buffer below.
	if open.Length < 0 || open.Length > proto.MaxPayloadBytes {
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: block %d announced length %d outside [0, %d]", open.Block, open.Length, proto.MaxPayloadBytes)), nil)
		return
	}
	var down proto.BlockStream
	var downErr error
	if len(open.Pipeline) > 0 {
		next := open.Pipeline[0]
		fwd := &proto.Message{
			Type:      proto.MsgWriteBlockStream,
			Block:     open.Block,
			Pipeline:  open.Pipeline[1:],
			Length:    open.Length,
			Checksum:  open.Checksum,
			ChunkSize: open.ChunkSize,
		}
		down, downErr = dn.open(next, fwd, dn.cfg.Timeout)
		if downErr != nil {
			downErr = fmt.Errorf("datanode: pipeline to %s: %w", next, downErr)
		}
		if down != nil {
			defer down.Close()
		}
	}

	// Chunks are read off the connection straight into the block buffer:
	// its capacity is exactly the announced length, so every chunk the
	// checks below accept fitted its spare capacity and RecvInto put it
	// at buf[len(buf):]. A successful Put takes the buffer; until then it
	// is this handler's, and goes back on the free list if Put fails or
	// never runs.
	buf := dn.free.getExact(open.Length)[:0]
	defer func() {
		if buf != nil {
			dn.free.put(buf)
		}
	}()
	var sum uint32 // running CRC32C of buf
	for {
		msg, chunk, err := st.RecvInto(buf)
		if err != nil {
			// Upstream died mid-stream: no complete block to keep.
			metrics.Default.Counter("dfs.datanode.stream_write_aborted").Inc()
			return
		}
		if msg.Type != proto.MsgChunk {
			//lint:ignore errcheck best effort; peer may be gone
			_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: unexpected frame %q mid-write", msg.Type)), nil)
			return
		}
		if msg.Checksum != proto.ChunkChecksum(chunk) {
			// A chunk corrupted in flight is rejected at the first hop
			// that sees it; nothing is stored and the writer retries.
			//lint:ignore errcheck best effort; peer may be gone
			_ = st.Send(proto.ErrorMessage(fmt.Errorf("%w: block %d chunk %d on streamed write", ErrCorrupt, open.Block, msg.Seq)), nil)
			return
		}
		if msg.Offset != len(buf) {
			//lint:ignore errcheck best effort; peer may be gone
			_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: block %d chunk %d offset %d, want %d", open.Block, msg.Seq, msg.Offset, len(buf))), nil)
			return
		}
		if end := len(buf) + len(chunk); end > open.Length || (msg.Eof && end != open.Length) {
			//lint:ignore errcheck best effort; peer may be gone
			_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: block %d chunk %d ends at byte %d (eof=%t), announced length %d", open.Block, msg.Seq, end, msg.Eof, open.Length)), nil)
			return
		}
		buf = buf[:len(buf)+len(chunk)] // chunk is buf's next bytes
		sum = proto.ChecksumCombine(sum, msg.Checksum, len(chunk))
		if down != nil && downErr == nil {
			if err := down.Send(msg, chunk); err != nil {
				// Keep receiving: the local copy must still complete and
				// commit even though the downstream hop is gone.
				downErr = fmt.Errorf("datanode: pipeline to %s: %w", open.Pipeline[0], err)
			}
		}
		if msg.Eof {
			break
		}
	}
	if open.Checksum != 0 && sum != open.Checksum {
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(fmt.Errorf("%w: block %d on streamed write", ErrCorrupt, open.Block)), nil)
		return
	}
	if err := dn.store.Put(open.Block, buf); err != nil {
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(err), nil)
		return
	}
	buf = nil // the store's now
	// Durable + reported before the downstream ack is consulted — see
	// the contract above.
	dn.noteReceived(open.Block)

	if down != nil && downErr == nil {
		ack, _, err := down.Recv()
		switch {
		case err != nil:
			downErr = fmt.Errorf("datanode: pipeline to %s: %w", open.Pipeline[0], err)
		case ack.Type != proto.MsgStreamAck:
			downErr = fmt.Errorf("datanode: pipeline to %s: unexpected ack frame %q", open.Pipeline[0], ack.Type)
		}
	}
	if downErr != nil {
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(downErr), nil)
		return
	}
	//lint:ignore errcheck best effort; peer may be gone
	_ = st.Send(&proto.Message{
		Type: proto.MsgStreamAck, Block: open.Block,
		Offset: open.Length, Checksum: sum,
	}, nil)
}

// handleReadStream serves a block as sequenced chunks starting at the
// requested offset. The offset is what makes failover cheap: a client
// that lost a replica mid-stream resumes on the next one at the first
// byte it is missing instead of refetching the whole block. Every chunk
// carries the block's total length (so the client can pre-allocate) and
// a per-chunk checksum.
func (dn *DataNode) handleReadStream(open *proto.Message, st proto.BlockStream) {
	data, err := dn.store.Get(open.Block)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			dn.evictCorrupt(open.Block)
		}
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(err), nil)
		return
	}
	// Get's copy is this handler's alone and every Send below returns
	// only once the bytes have left it.
	defer dn.free.put(data)
	if open.Offset < 0 || open.Offset > len(data) {
		//lint:ignore errcheck best effort; peer may be gone
		_ = st.Send(proto.ErrorMessage(fmt.Errorf("datanode: block %d read offset %d out of range (%d bytes)", open.Block, open.Offset, len(data))), nil)
		return
	}
	size := open.ChunkSize
	if size <= 0 {
		size = proto.DefaultChunkSize
	}
	for seq, off := 0, open.Offset; ; seq++ {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		part := data[off:end]
		msg := &proto.Message{
			Type: proto.MsgChunk, Block: open.Block,
			Seq: seq, Offset: off, Eof: end == len(data),
			Length: len(data), Checksum: proto.ChunkChecksum(part),
		}
		if err := st.Send(msg, part); err != nil {
			return // client gone; nothing to clean up
		}
		if msg.Eof {
			return
		}
		off = end
	}
}
