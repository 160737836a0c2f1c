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
		refuse(st, fmt.Errorf("datanode: unexpected stream opening %q", open.Type))
	}
}

// refuse answers a stream with an error frame, best effort.
func refuse(st proto.BlockStream, err error) {
	//lint:ignore errcheck best effort; peer may be gone
	_ = st.Send(proto.ErrorMessage(err), nil)
}

// handleWriteStream receives a block as sequenced chunks and pipelines
// them downstream: chunk i is forwarded to the next node while chunk
// i+1 is still arriving, so a k-deep pipeline costs ~1 block transfer
// plus k chunk latencies instead of k sequential block hops. The commit
// signal is the tail ack relayed back up the chain: each node answers
// MsgStreamAck only after its own store succeeded AND its downstream
// ack arrived and matched its own length and checksum.
//
// CONTRACT (DESIGN.md §15.4, "failure semantics"): every hop stores its
// replica and records it in its report tracker BEFORE the downstream
// outcome is known, and the head — the hop whose opening frame names no
// forwarder (DataAddr) — reports the block to the namenode before it
// answers upstream: itself, plus every downstream hop when the
// downstream ack vouches for the chain. That one report per block is
// the only MsgBlockReceived a write sends; a forwarded hop's replica
// reaches the namenode in that report or in its own next delta. A
// mid-pipeline failure therefore surfaces an error to the writer while
// the head already holds a confirmed copy — the write is not atomic
// across the pipeline. The reconcile loop sees the under-replicated
// block in the confirmed set and repairs the short pipeline;
// TestPipelineFailureReconcileRepairs pins this.
func (dn *DataNode) handleWriteStream(open *proto.Message, st proto.BlockStream) {
	// Length is peer-controlled and sizes the receive buffer below.
	if open.Length < 0 || open.Length > proto.MaxPayloadBytes {
		refuse(st, fmt.Errorf("datanode: block %d announced length %d outside [0, %d]", open.Block, open.Length, proto.MaxPayloadBytes))
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
			DataAddr:  dn.Addr(), // the next hop is not the head
		}
		down, downErr = dn.open(next, fwd, dn.cfg.Timeout)
		if downErr != nil {
			downErr = fmt.Errorf("datanode: pipeline to %s: %w", next, downErr)
		}
		if down != nil {
			defer down.Close()
		}
	}

	// proto.RecvChunks reads the chunks off the connection straight into
	// the block buffer, whose capacity is exactly the announced length.
	// A successful Put takes the buffer; until then it is this handler's,
	// and goes back on the free list if Put fails or never runs.
	buf := dn.free.getExact(open.Length)[:0]
	defer func() {
		if buf != nil {
			dn.free.put(buf)
		}
	}()
	var sum uint32 // running CRC32C of buf
	err := proto.RecvChunks(st, open.Block, &buf, func(msg *proto.Message, chunk []byte) {
		sum = proto.ChecksumCombine(sum, msg.Checksum, len(chunk))
		if down != nil && downErr == nil {
			if err := down.Send(msg, chunk); err != nil {
				// Keep receiving: the local copy must still complete and
				// commit even though the downstream hop is gone.
				downErr = fmt.Errorf("datanode: pipeline to %s: %w", open.Pipeline[0], err)
			}
		}
	})
	switch {
	case errors.Is(err, proto.ErrBadChunk):
		// A chunk corrupted in flight, or off the stream's rules, is
		// rejected at the first hop that sees it; nothing is stored and
		// the writer retries.
		refuse(st, fmt.Errorf("datanode: streamed write: %w", err))
		return
	case err != nil:
		// Upstream died mid-stream: no complete block to keep.
		metrics.Default.Counter("dfs.datanode.stream_write_aborted").Inc()
		return
	}
	if open.Checksum != 0 && sum != open.Checksum {
		refuse(st, fmt.Errorf("%w: block %d on streamed write", proto.ErrChecksum, open.Block))
		return
	}
	if err := dn.store.Put(open.Block, buf); err != nil {
		refuse(st, err)
		return
	}
	buf = nil // the store's now
	// Durable and in the tracker before the downstream ack is consulted,
	// so this node's next delta carries the replica whatever the
	// pipeline's outcome — see the contract above.
	dn.tracker.noteReceived(open.Block)

	if down != nil && downErr == nil {
		ack, _, err := down.Recv()
		switch {
		case err != nil:
			downErr = fmt.Errorf("datanode: pipeline to %s: %w", open.Pipeline[0], err)
		case ack.Type != proto.MsgStreamAck || ack.Offset != open.Length || ack.Checksum != sum:
			downErr = fmt.Errorf("datanode: pipeline to %s: ack %q at offset %d (crc %08x), want %q at %d (crc %08x)",
				open.Pipeline[0], ack.Type, ack.Offset, ack.Checksum, proto.MsgStreamAck, open.Length, sum)
		}
	}
	if open.DataAddr == "" {
		// The head: the block's one arrival report. A downstream ack
		// that matched vouches for every hop after this one, since each
		// acks only once its own downstream ack matched.
		var vouched []string
		if down != nil && downErr == nil {
			vouched = open.Pipeline
		}
		dn.reportReceived(open.Block, vouched)
	}
	if downErr != nil {
		refuse(st, downErr)
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
		refuse(st, err)
		return
	}
	// Get's copy is this handler's alone and every Send of SendChunks
	// returns only once the bytes have left it.
	defer dn.free.put(data)
	if open.Offset < 0 || open.Offset > len(data) {
		refuse(st, fmt.Errorf("datanode: block %d read offset %d out of range (%d bytes)", open.Block, open.Offset, len(data)))
		return
	}
	//lint:ignore errcheck the client is gone; nothing to clean up
	_ = proto.SendChunks(st, open.Block, data, open.Offset, open.ChunkSize, nil, len(data))
}
