package proto

import (
	"fmt"
	"hash/crc32"
	"net"
	"time"

	"aurora/internal/metrics"
)

// castagnoli is the CRC32C table shared by every chunk checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkChecksum is the CRC32C (Castagnoli) over one chunk payload — the
// per-chunk integrity check carried in the Checksum field of every
// MsgChunk frame, and the same polynomial the block store uses for
// whole-block sums.
func ChunkChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumUpdate extends a running CRC32C over a by the bytes b, so
// ChecksumUpdate(ChunkChecksum(a), b) == ChunkChecksum(a||b). A receiver
// folds each chunk in as it lands and has the whole-block sum at Eof
// without a second pass over the block.
func ChecksumUpdate(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// DefaultChunkSize is the payload size of one MsgChunk frame when the
// caller does not pick one. 128 KiB keeps per-chunk framing overhead
// (~100 bytes of JSON header) under 0.1% while still giving the write
// pipeline enough chunks per block to overlap hops.
const DefaultChunkSize = 128 << 10

// BlockStream is one side of a chunked data-path exchange: an ordered,
// bidirectional sequence of frames on a single connection, opened by a
// MsgWriteBlockStream or MsgReadBlockStream frame and carried as
// MsgChunk / MsgStreamAck frames (DESIGN.md §15). Implementations are
// not safe for concurrent use; each stream belongs to one goroutine.
type BlockStream interface {
	// Send writes one frame. Each Send refreshes the connection
	// deadline, so the timeout bounds per-frame progress rather than
	// the whole (arbitrarily large) block transfer.
	Send(msg *Message, payload []byte) error
	// Recv reads one frame. A MsgError frame is converted into a
	// *RemoteError, mirroring Call. The payload is valid only until the
	// next Recv or Close on this stream — the stream may read the next
	// frame into the same memory — so a consumer that keeps the bytes
	// copies them out first (DESIGN.md §15.6).
	Recv() (*Message, []byte, error)
	// Close tears down the underlying connection. The peer observes it
	// as a mid-stream failure.
	Close() error
}

// OpenStreamFunc is the signature of OpenStream. Components take an
// OpenStreamFunc so the fault-injection harness can interpose on
// data-path traffic the same way CallFunc interposes on control RPCs;
// the zero value of any config falls back to OpenStream.
type OpenStreamFunc func(addr string, open *Message, timeout time.Duration) (BlockStream, error)

// Stream is the concrete BlockStream over a net.Conn.
type Stream struct {
	conn    net.Conn
	timeout time.Duration
	// scratch is the one payload buffer every Recv reads into: sized by
	// the first chunk, regrown only if a larger one arrives. It belongs
	// to this stream alone and is never shared or pooled, so a Close from
	// another goroutine cannot hand it to a second reader.
	scratch []byte
}

// NewStream wraps an established connection in a Stream. The timeout
// bounds each individual frame exchange (zero means DefaultTimeout).
func NewStream(conn net.Conn, timeout time.Duration) *Stream {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Stream{conn: conn, timeout: timeout}
}

// Send implements BlockStream.
func (s *Stream) Send(msg *Message, payload []byte) error {
	if err := s.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return fmt.Errorf("proto: stream set deadline: %w", err)
	}
	n, err := writeFrame(s.conn, msg, payload)
	if err != nil {
		return err
	}
	if msg.Type == MsgChunk {
		dir := metrics.L("dir", "send")
		metrics.Default.Counter("aurora_stream_chunks", dir).Inc()
		metrics.Default.Counter("aurora_stream_bytes", dir).Add(int64(n))
	}
	return nil
}

// Recv implements BlockStream.
func (s *Stream) Recv() (*Message, []byte, error) {
	if err := s.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return nil, nil, fmt.Errorf("proto: stream set deadline: %w", err)
	}
	msg, payload, n, err := readFrameInto(s.conn, &s.scratch)
	if err != nil {
		return nil, nil, err
	}
	if msg.Type == MsgChunk {
		dir := metrics.L("dir", "recv")
		metrics.Default.Counter("aurora_stream_chunks", dir).Inc()
		metrics.Default.Counter("aurora_stream_bytes", dir).Add(int64(n))
	}
	if err := msg.AsError(); err != nil {
		return nil, nil, err
	}
	return msg, payload, nil
}

// Close implements BlockStream.
func (s *Stream) Close() error {
	if err := s.conn.Close(); err != nil {
		return fmt.Errorf("proto: stream close: %w", err)
	}
	return nil
}

// OpenStream dials addr, sends the opening frame and returns the live
// stream. The caller owns the stream and must Close it. The timeout
// bounds the dial and then each subsequent frame exchange.
func OpenStream(addr string, open *Message, timeout time.Duration) (BlockStream, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	conn, err := dialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	st := NewStream(conn, timeout)
	if err := st.Send(open, nil); err != nil {
		//lint:ignore errcheck already failing; Send error is the one to report
		_ = conn.Close()
		return nil, err
	}
	return st, nil
}

// SendBlock writes one block to addr over a chunked stream: the opening
// MsgWriteBlockStream frame names the pipeline the receiver forwards to
// (empty for a single hop), data follows as chunkSize-byte MsgChunk
// frames (chunkSize <= 0 means DefaultChunkSize), and the call returns
// once the MsgStreamAck for the whole block has come back. It is the one
// sender of block bytes: client writes and datanode replication
// transfers both go through it (DESIGN.md §15.2).
func SendBlock(open OpenStreamFunc, addr string, block BlockID, pipeline []string, data []byte, chunkSize int, timeout time.Duration) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	st, err := open(addr, &Message{
		Type:      MsgWriteBlockStream,
		Block:     block,
		Pipeline:  pipeline,
		Length:    len(data),
		Checksum:  ChunkChecksum(data),
		ChunkSize: chunkSize,
	}, timeout)
	if err != nil {
		return err
	}
	defer st.Close()
	for seq, off := 0, 0; ; seq++ {
		end := min(off+chunkSize, len(data))
		part := data[off:end]
		msg := &Message{
			Type: MsgChunk, Block: block,
			Seq: seq, Offset: off, Eof: end == len(data),
			Checksum: ChunkChecksum(part),
		}
		if err := st.Send(msg, part); err != nil {
			return err
		}
		if msg.Eof {
			break
		}
		off = end
	}
	ack, _, err := st.Recv()
	if err != nil {
		return err
	}
	if ack.Type != MsgStreamAck || ack.Offset != len(data) {
		return fmt.Errorf("proto: block %d stream ack %q at offset %d, want %q at %d",
			block, ack.Type, ack.Offset, MsgStreamAck, len(data))
	}
	return nil
}
