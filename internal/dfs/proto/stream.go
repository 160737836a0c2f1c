package proto

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"
)

// castagnoli is the CRC32C table shared by every chunk checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkChecksum is the CRC32C (Castagnoli) over one chunk payload — the
// per-chunk integrity check carried in the Checksum field of every
// MsgChunk frame, and the same polynomial the block store uses for
// whole-block sums.
func ChunkChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumCombine returns ChunkChecksum(a‖b) from sumA =
// ChunkChecksum(a), sumB = ChunkChecksum(b) and lenB = len(b), without
// touching a byte of either: a CRC is linear over GF(2), so the sum of
// a‖b is sumA shifted past lenB zero bytes — multiplied by x^(8·lenB)
// mod P — xor sumB (the pre- and post-inversions cancel in the xor). A
// receiver folds in each chunk sum it has already verified and has the
// whole-block sum at Eof with no second pass over the block; a sender
// derives the opening frame's block sum from its chunk sums.
func ChecksumCombine(sumA, sumB uint32, lenB int) uint32 {
	return multModP(xPow8n(lenB), sumA) ^ sumB
}

// castagnoliPoly is the CRC32C polynomial in the reflected bit order the
// crc32 package computes in: bit 31 is the x^0 coefficient.
const castagnoliPoly = 0x82f63b78

// multModP returns a(x)·b(x) mod P(x) for reflected a, b; a must be
// non-zero.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliPoly
		} else {
			b >>= 1
		}
	}
}

// x2n[k] is x^(2^k) mod P, reflected.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// xPow8n returns x^(8·n) mod P, reflected: the factor that shifts a CRC
// past n zero bytes. It walks n's bits, so it costs O(log n) products.
func xPow8n(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2n[k&31], p)
		}
	}
	return p
}

// DefaultChunkSize is the payload size of one MsgChunk frame when the
// caller does not pick one. 128 KiB keeps per-chunk framing overhead
// (8 bytes of lengths and a ~20-byte header) far under 0.1% while
// still giving the write pipeline enough chunks per block to overlap
// hops.
const DefaultChunkSize = 128 << 10

// BlockStream is one side of a chunked data-path exchange: an ordered,
// bidirectional sequence of frames on a single connection, opened by a
// MsgWriteBlockStream or MsgReadBlockStream frame and carried as
// MsgChunk / MsgStreamAck frames (DESIGN.md §15). Implementations are
// not safe for concurrent Send or Recv; each stream belongs to one
// goroutine, though Close may come from another.
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
	// RecvInto is Recv with a destination: a payload that fits in buf's
	// spare capacity is read from the connection straight into
	// buf[len(buf):], and the returned payload is that region — the
	// caller's memory, kept by reslicing buf over it, with no copy. A
	// payload that does not fit is returned as Recv returns it. The
	// bytes past len(buf) are the stream's to overwrite until the call
	// returns (DESIGN.md §15.6).
	RecvInto(buf []byte) (*Message, []byte, error)
	// Close ends the caller's use of the stream. Before the exchange
	// has run to its end the peer observes it as a mid-stream failure.
	Close() error
}

// OpenStreamFunc is the signature of OpenStream. Components take an
// OpenStreamFunc so the fault-injection harness can interpose on
// data-path traffic the same way CallFunc interposes on control RPCs;
// the zero value of any config falls back to OpenStream.
type OpenStreamFunc func(addr string, open *Message, timeout time.Duration) (BlockStream, error)

// streamPhase is where an exchange stands in its protocol (DESIGN.md
// §15.7). Only phaseDone leaves the connection fit for another
// exchange, and phaseBroken is final.
type streamPhase uint8

const (
	phaseBroken streamPhase = iota // failed or off-protocol
	phaseChunks                    // chunks flowing, Eof not yet seen
	phaseAck                       // write stream: Eof chunk passed, MsgStreamAck owed
	phaseDone                      // the terminal frame passed; nothing is owed or unread
)

// Stream is the concrete BlockStream over a net.Conn.
type Stream struct {
	timeout time.Duration
	// scratch is the one payload buffer every Recv reads into, unless
	// RecvInto's destination holds the payload: sized by the first chunk,
	// regrown only if a larger one arrives. It belongs to this stream
	// alone and is never shared or pooled, so a Close from another
	// goroutine cannot hand it to a second reader.
	scratch []byte
	// addr is where Close releases the connection to: the pool key of a
	// stream OpenStream made, empty on the serving side, whose
	// connection goes back to its Server's request loop instead.
	addr string
	// write says the exchange is a write stream (an ack follows the Eof
	// chunk); sender says this end is the one sending the chunks.
	write, sender bool
	// open is the encoded opening frame of a write stream OpenStream
	// made, until it leaves ahead of the first chunk in that chunk's
	// write (or ahead of a Recv, should one come first).
	open []byte

	// mu makes Close safe against a concurrent Send or Recv: conn is nil
	// once Close (or the Server) has taken the connection away, busy
	// counts the Send/Recv calls in flight, and phase follows the frames
	// that have passed. A connection is reused only if it was taken at
	// phaseDone with nothing in flight.
	mu    sync.Mutex
	conn  *wireConn
	busy  int
	phase streamPhase
}

// newStream is the stream behind an opening frame of type kind, on the
// opening end (opener) or the serving one; its protocol progress is
// tracked so the connection can be reused after a clean end. The timeout
// bounds each individual frame exchange (zero means DefaultTimeout).
func newStream(conn *wireConn, timeout time.Duration, kind MsgType, opener bool) *Stream {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	write := kind == MsgWriteBlockStream
	return &Stream{conn: conn, timeout: timeout, write: write, sender: write == opener, phase: phaseChunks}
}

// begin claims the connection for one Send or Recv.
func (s *Stream) begin() (*wireConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil, fmt.Errorf("proto: stream: %w", net.ErrClosed)
	}
	s.busy++
	return s.conn, nil
}

// end records the outcome of one Send (sent) or Recv: the exchange
// stays on protocol only while chunks flow from the sender up to one
// Eof chunk, followed on a write stream by one MsgStreamAck the other
// way. An I/O error, a MsgError frame or any other frame breaks it.
func (s *Stream) end(sent bool, msg *Message, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	next := phaseBroken
	switch {
	case err != nil:
	case msg.Type == MsgChunk && s.phase == phaseChunks && sent == s.sender:
		switch {
		case !msg.Eof:
			next = phaseChunks
		case s.write:
			next = phaseAck
		default:
			next = phaseDone
		}
	case msg.Type == MsgStreamAck && s.phase == phaseAck && sent != s.sender:
		next = phaseDone
	}
	s.phase = next
}

// detach takes the connection away from the stream — at most once; later
// calls get nil — and reports whether it is fit for another exchange.
func (s *Stream) detach() (conn *wireConn, clean bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	conn, s.conn = s.conn, nil
	return conn, s.phase == phaseDone && s.busy == 0
}

// Send implements BlockStream.
func (s *Stream) Send(msg *Message, payload []byte) error {
	conn, err := s.begin()
	if err != nil {
		return err
	}
	var n int
	if err = conn.raw.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		err = fmt.Errorf("proto: stream set deadline: %w", err)
	} else {
		n, err = writeFrame(conn.raw, s.open, msg, payload)
		s.open = nil
	}
	s.end(true, msg, err)
	if err != nil {
		return err
	}
	if msg.Type == MsgChunk {
		chunksSent.get().Inc()
		bytesSent.get().Add(int64(n))
	}
	return nil
}

// Recv implements BlockStream.
func (s *Stream) Recv() (*Message, []byte, error) { return s.RecvInto(nil) }

// RecvInto implements BlockStream.
func (s *Stream) RecvInto(buf []byte) (*Message, []byte, error) {
	conn, err := s.begin()
	if err != nil {
		return nil, nil, err
	}
	var msg *Message
	var payload []byte
	var n int
	if err = conn.raw.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		err = fmt.Errorf("proto: stream set deadline: %w", err)
	} else if err = s.sendOpen(conn); err == nil {
		msg, payload, n, err = conn.rd.readFrame(false, buf, &s.scratch)
	}
	s.end(false, msg, err)
	if err != nil {
		return nil, nil, err
	}
	if msg.Type == MsgChunk {
		chunksRecv.get().Inc()
		bytesRecv.get().Add(int64(n))
	}
	if err := msg.AsError(); err != nil {
		return nil, nil, err
	}
	return msg, payload, nil
}

// sendOpen writes a write stream's opening frame if it has not left yet.
func (s *Stream) sendOpen(conn *wireConn) error {
	if s.open == nil {
		return nil
	}
	_, err := conn.raw.Write(s.open)
	s.open = nil
	if err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// Close implements BlockStream. It is idempotent and may race a Send or
// Recv. The first Close takes the connection from the stream: if the
// exchange had run to its protocol end — the Eof chunk passed, and on a
// write stream the MsgStreamAck after it — with no call in flight, the
// connection goes back to the idle pool for the next Call or OpenStream
// to the same address; in every other case (an I/O error, a MsgError
// frame, a Close before the end) it is closed, which the peer observes
// as a mid-stream failure.
func (s *Stream) Close() error {
	conn, clean := s.detach()
	if conn == nil {
		return nil
	}
	if clean && s.addr != "" {
		idlePool.put(s.addr, conn)
		return nil
	}
	if err := conn.raw.Close(); err != nil {
		return fmt.Errorf("proto: stream close: %w", err)
	}
	return nil
}

// OpenStream connects to addr — on a pooled connection when a usable
// one exists, a fresh dial otherwise (DESIGN.md §15.7) — and returns the
// live stream with its opening frame sent. A write stream's opening
// frame waits for the first chunk and leaves with it, in one write, so
// a one-chunk block costs its hop one write and one wakeup. The caller
// owns the stream and must Close it. The timeout bounds the connect
// plus opening frame and then each subsequent frame exchange.
func OpenStream(addr string, open *Message, timeout time.Duration) (BlockStream, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	head, err := appendFrameHead(nil, open, 0)
	if err != nil {
		return nil, err
	}
	conn, _, err := connect(addr, time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	st := newStream(conn, timeout, open.Type, true)
	st.addr = addr
	st.open = head
	if !st.sender {
		if err := st.sendOpen(conn); err != nil {
			//lint:ignore errcheck already failing; the write error is the one to report
			_ = conn.raw.Close()
			return nil, err
		}
	}
	return st, nil
}

// SendBlock writes one block to addr over a chunked stream: the opening
// MsgWriteBlockStream frame names the pipeline the receiver forwards to
// (empty for a single hop), data follows as chunkSize-byte MsgChunk
// frames (chunkSize <= 0 means DefaultChunkSize), and the call returns
// once the MsgStreamAck for the whole block has come back. Client writes
// and datanode replication transfers both go through it (DESIGN.md
// §15.2).
func SendBlock(open OpenStreamFunc, addr string, block BlockID, pipeline []string, data []byte, chunkSize int, timeout time.Duration) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	// One CRC pass over the block: each chunk's sum is computed here,
	// stamped on its frame by SendChunks, and folded into the
	// whole-block sum the opening frame carries.
	sums := make([]uint32, 0, len(data)/chunkSize+1)
	var sum uint32
	for off := 0; ; off += chunkSize {
		end := min(off+chunkSize, len(data))
		c := ChunkChecksum(data[off:end])
		sums = append(sums, c)
		sum = ChecksumCombine(sum, c, end-off)
		if end == len(data) {
			break
		}
	}
	st, err := open(addr, &Message{
		Type:      MsgWriteBlockStream,
		Block:     block,
		Pipeline:  pipeline,
		Length:    len(data),
		Checksum:  sum,
		ChunkSize: chunkSize,
	}, timeout)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := SendChunks(st, block, data, 0, chunkSize, sums, 0); err != nil {
		return err
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

// ErrChecksum reports bytes that fail the CRC32C sent with them: a
// chunk, or a streamed block's whole-block sum. A reader's failover
// error and a datanode's error reply both wrap it.
var ErrChecksum = errors.New("proto: checksum mismatch")

// ErrBadChunk reports a frame that breaks RecvChunks' rules, as against a
// stream that failed.
var ErrBadChunk = errors.New("proto: bad chunk")

// SendChunks is the one chunk sender (DESIGN.md §15.2, §15.3): it sends
// data[off:] on st as MsgChunk frames of at most size bytes (size <= 0
// means DefaultChunkSize), numbered from 0, the last marked Eof; an
// empty tail is one empty Eof chunk. Each frame carries its chunk's
// CRC32C, sums[seq] if the caller has summed the chunks already, and
// length: the block's, on a read stream, so the reader can size for it,
// and 0 on a write stream, whose opening frame announced it.
func SendChunks(st BlockStream, block BlockID, data []byte, off, size int, sums []uint32, length int) error {
	if size <= 0 {
		size = DefaultChunkSize
	}
	for seq := 0; ; seq++ {
		end := min(off+size, len(data))
		part := data[off:end]
		msg := &Message{Type: MsgChunk, Block: block, Seq: seq, Offset: off, Eof: end == len(data), Length: length}
		if sums != nil {
			msg.Checksum = sums[seq]
		} else {
			msg.Checksum = ChunkChecksum(part)
		}
		if err := st.Send(msg, part); err != nil {
			return err
		}
		if msg.Eof {
			return nil
		}
		off = end
	}
}

// RecvChunks is the one chunk receiver (DESIGN.md §15.2, §15.3). It reads
// frames from st into the spare capacity of *buf, whose capacity is the
// block's length, until the Eof chunk. It accepts a MsgChunk frame whose
// bytes match its CRC32C, whose Offset is len(*buf) and which ends at or
// before cap(*buf) — exactly there if it carries Eof (an empty Eof chunk
// may follow one that filled the block). An accepted chunk extends *buf
// in place and goes to accept, if that is non-nil. A frame that breaks a
// rule ends the receive with an error wrapping ErrBadChunk (and
// ErrChecksum for a failed CRC); a failure of the stream itself (a torn
// connection, the peer's error frame) comes back as the stream reported
// it. Either way *buf keeps every byte accepted before, so a reader can
// resume on another replica from len(*buf).
func RecvChunks(st BlockStream, block BlockID, buf *[]byte, accept func(msg *Message, chunk []byte)) error {
	for {
		msg, chunk, err := st.RecvInto(*buf)
		if err != nil {
			return err
		}
		have := len(*buf)
		switch end := have + len(chunk); {
		case msg.Type != MsgChunk:
			return fmt.Errorf("%w: block %d: frame %q mid-stream", ErrBadChunk, block, msg.Type)
		case msg.Checksum != ChunkChecksum(chunk):
			return fmt.Errorf("%w: %w: block %d chunk %d", ErrBadChunk, ErrChecksum, block, msg.Seq)
		case msg.Offset != have:
			return fmt.Errorf("%w: block %d chunk %d at offset %d, want %d", ErrBadChunk, block, msg.Seq, msg.Offset, have)
		case end > cap(*buf) || msg.Eof && end != cap(*buf):
			return fmt.Errorf("%w: block %d chunk %d ends at byte %d (eof=%t) of %d", ErrBadChunk, block, msg.Seq, end, msg.Eof, cap(*buf))
		}
		*buf = (*buf)[:have+len(chunk)] // chunk is *buf's next bytes
		if accept != nil {
			accept(msg, chunk)
		}
		if msg.Eof {
			return nil
		}
	}
}
