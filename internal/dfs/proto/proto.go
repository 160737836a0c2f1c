// Package proto defines the wire protocol of the mini distributed file
// system: length-prefixed binary frames, a Message header with an
// optional raw payload for block data.
//
// Frame layout:
//
//	+----------------+----------------+----------------+-----------+
//	| header len u32 | payload len u32| header         | payload   |
//	+----------------+----------------+----------------+-----------+
//
// Both lengths are big-endian. The header is a Message in the binary
// encoding of codec.go (a type byte, a field mask, varints); the payload
// carries block bytes on MsgChunk frames and is empty otherwise. A
// connection carries a sequence of exchanges, one at a time: a control
// request frame answered by one response frame (Call), or a chunked
// stream that moves block bytes (see Stream and DESIGN.md §15). Between
// exchanges the client keeps the connection in a process-wide idle pool
// keyed by address and the server waits on it for the next request, so
// steady traffic to a peer dials once, not once per message; only an
// exchange that ran to its protocol end leaves a connection reusable
// (DESIGN.md §15.7).
package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// Limits protecting against malformed frames.
const (
	MaxHeaderBytes  = 1 << 20   // 1 MiB of encoded header
	MaxPayloadBytes = 256 << 20 // 256 MiB block payload
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")
	ErrBadFrame      = errors.New("proto: malformed frame")
)

// MsgType discriminates protocol messages.
type MsgType string

// Control-plane message types (client or datanode to namenode).
const (
	// Client -> NameNode.
	MsgCreateFile   MsgType = "create_file"
	MsgAddBlock     MsgType = "add_block"
	MsgCompleteFile MsgType = "complete_file"
	MsgGetLocations MsgType = "get_locations"
	MsgSetRepl      MsgType = "set_replication"
	MsgDeleteFile   MsgType = "delete_file"
	MsgListFiles    MsgType = "list_files"
	MsgStatFile     MsgType = "stat_file"
	MsgClusterInfo  MsgType = "cluster_info"
	MsgFsck         MsgType = "fsck"
	MsgDecommission MsgType = "decommission"

	// DataNode -> NameNode. MsgHeartbeatDelta is the one block report:
	// in the steady state it carries only the blocks received/deleted
	// since the last acknowledged report plus a set digest, so
	// datanode->namenode traffic is O(changed blocks) rather than O(all
	// blocks); a full report is the same message with FullReport set and
	// every held block in Received, the delta from the empty set. See
	// DESIGN.md §15.5.
	MsgRegister       MsgType = "register"
	MsgHeartbeatDelta MsgType = "heartbeat_delta"
	MsgBlockReceived  MsgType = "block_received"

	// Retired whole-block write RPC: never sent or handled, declared only
	// because the frozen bench/wrap.go still names it in a span switch.
	MsgWriteBlock MsgType = "write_block"

	// Client/DataNode -> DataNode, chunked streaming data plane. The
	// opening frame switches the connection into a multi-frame exchange
	// (see Stream and DESIGN.md §15): a write stream carries MsgChunk
	// frames downstream and one MsgStreamAck (or MsgError) back; a read
	// stream answers with MsgChunk frames.
	MsgWriteBlockStream MsgType = "write_block_stream"
	MsgReadBlockStream  MsgType = "read_block_stream"
	MsgChunk            MsgType = "chunk"
	MsgStreamAck        MsgType = "stream_ack"

	// Generic response.
	MsgOK    MsgType = "ok"
	MsgError MsgType = "error"
)

// OpensStream reports whether a request of this type switches the
// connection into a multi-frame streaming exchange instead of the
// default one-request/one-response pattern.
func (t MsgType) OpensStream() bool {
	return t == MsgWriteBlockStream || t == MsgReadBlockStream
}

// BlockID identifies a stored block cluster-wide.
type BlockID int64

// NodeID identifies a registered datanode.
type NodeID int32

// CommandKind enumerates namenode-to-datanode commands piggybacked on
// heartbeat responses, mirroring HDFS's DatanodeCommand mechanism.
type CommandKind string

// Datanode commands.
const (
	CmdReplicate CommandKind = "replicate" // copy a local block to Target
	CmdDelete    CommandKind = "delete"    // drop a local block replica
)

// Command is one instruction for a datanode.
type Command struct {
	Kind   CommandKind `json:"kind"`
	Block  BlockID     `json:"block"`
	Target string      `json:"target,omitempty"` // data address of the destination
}

// BlockLocation describes where one block of a file lives.
type BlockLocation struct {
	Block     BlockID  `json:"block"`
	Length    int      `json:"length"`
	Addresses []string `json:"addresses"` // datanode data addresses
}

// FileInfo summarizes a file for List/Stat.
type FileInfo struct {
	Path        string `json:"path"`
	Blocks      int    `json:"blocks"`
	Length      int64  `json:"length"`
	Replication int    `json:"replication"`
	Complete    bool   `json:"complete"`
}

// HealthReport is the fsck summary: desired-versus-actual replica
// accounting and the reconcile loop's backlog.
type HealthReport struct {
	Files                 int  `json:"files"`
	Blocks                int  `json:"blocks"`
	DesiredReplicas       int  `json:"desiredReplicas"`
	ConfirmedReplicas     int  `json:"confirmedReplicas"`
	UnderReplicatedBlocks int  `json:"underReplicatedBlocks"`
	UnderSpreadBlocks     int  `json:"underSpreadBlocks"`
	PendingCommands       int  `json:"pendingCommands"`
	InflightTransfers     int  `json:"inflightTransfers"`
	DeadNodes             int  `json:"deadNodes"`
	TombstonedBlocks      int  `json:"tombstonedBlocks"`
	DrainingNodes         int  `json:"drainingNodes"`
	Healthy               bool `json:"healthy"`
}

// NodeInfo summarizes a datanode for ClusterInfo.
type NodeInfo struct {
	ID       NodeID `json:"id"`
	Rack     int    `json:"rack"`
	Addr     string `json:"addr"`
	Blocks   int    `json:"blocks"`
	Capacity int    `json:"capacity"`
	Alive    bool   `json:"alive"`
	// Draining means the node is being decommissioned: its replicas are
	// migrating elsewhere and no new data lands on it.
	Draining bool `json:"draining,omitempty"`
	// Decommissioned means draining finished: the node holds nothing and
	// can be stopped safely.
	Decommissioned bool `json:"decommissioned,omitempty"`
}

// Message is the wire header. A single struct with optional fields keeps
// the codec trivial; the Type field says which fields are meaningful.
// The json tags are not the wire format: their omitempty states each
// field's presence rule, which the binary codec follows (codec.go).
type Message struct {
	Type MsgType `json:"type"`

	// Common.
	Path  string  `json:"path,omitempty"`
	Block BlockID `json:"block,omitempty"`
	Error string  `json:"error,omitempty"`

	// Create/SetReplication.
	Replication int `json:"replication,omitempty"`
	MinRacks    int `json:"minRacks,omitempty"`

	// AddBlock / WriteBlockStream: the replication pipeline (data
	// addresses to forward to, in order).
	Pipeline []string `json:"pipeline,omitempty"`

	// GetLocations response.
	Locations []BlockLocation `json:"locations,omitempty"`

	// Register / Heartbeat.
	Node     NodeID    `json:"node,omitempty"`
	Rack     int       `json:"rack,omitempty"`
	DataAddr string    `json:"dataAddr,omitempty"`
	Capacity int       `json:"capacity,omitempty"`
	Commands []Command `json:"commands,omitempty"`

	// ListFiles / StatFile / ClusterInfo responses. A ListFiles reply
	// holds every file, in path order.
	Files []FileInfo `json:"files,omitempty"`
	Nodes []NodeInfo `json:"nodes,omitempty"`

	// Fsck response.
	Health *HealthReport `json:"health,omitempty"`

	// Block length in bytes: announced by a write stream's opening frame
	// and carried on every chunk of a read stream.
	Length int `json:"length,omitempty"`
	// Checksum is the CRC32C of the block payload; zero means "not
	// supplied". Writers stamp it and every pipeline stage verifies it.
	// On a MsgChunk frame it covers that chunk's payload only; the
	// whole-block checksum travels in a write stream's opening frame.
	Checksum uint32 `json:"checksum,omitempty"`

	// Chunked streaming (MsgWriteBlockStream/MsgReadBlockStream opening
	// frames and MsgChunk data frames). Seq numbers chunks from 0 within
	// one stream; Eof marks the final chunk (which may be zero-length);
	// ChunkSize is the sender's requested chunk payload size in bytes;
	// Offset asks a read stream to start at this byte (failover resume).
	Seq       int  `json:"seq,omitempty"`
	Eof       bool `json:"eof,omitempty"`
	ChunkSize int  `json:"chunkSize,omitempty"`
	Offset    int  `json:"offset,omitempty"`

	// Block reports (MsgHeartbeatDelta and its response). Digest is the
	// xor-of-hashes set digest of the blocks the node holds
	// (BlockSetDigest); Received/Deleted are the changes since the last
	// acknowledged report. FullReport on a request says Received is the
	// node's whole set (and Digest is not sent); on a response it asks
	// the datanode to send a full report next tick.
	Digest     uint64    `json:"digest,omitempty"`
	Received   []BlockID `json:"received,omitempty"`
	Deleted    []BlockID `json:"deleted,omitempty"`
	FullReport bool      `json:"fullReport,omitempty"`
}

// BlockDigest hashes one block ID for set digests (splitmix64, the same
// mix ShardOf uses). Digests of block sets xor these per-block hashes,
// so a set digest is updatable in O(1) per add/remove and
// order-independent.
func BlockDigest(id BlockID) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BlockSetDigest folds a block list into its xor set digest.
func BlockSetDigest(ids []BlockID) uint64 {
	var d uint64
	for _, id := range ids {
		d ^= BlockDigest(id)
	}
	return d
}

// WriteFrame writes one frame: the message header and an optional binary
// payload.
func WriteFrame(w io.Writer, msg *Message, payload []byte) error {
	_, err := writeFrame(w, nil, msg, payload)
	return err
}

// frameLensBytes is the size of the two-length prefix of every frame.
const frameLensBytes = 8

// frameBuf is the scratch one frame is assembled in: head holds a
// written frame's length prefix and header back to back (or, read
// side, a header too large for a connection's read buffer), and vec and
// bufs are the two-element vector (head, payload) handed to the writer,
// kept here so building it allocates nothing.
type frameBuf struct {
	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// appendFrameHead appends the length prefix and header of a frame that
// carries msg and payloadLen payload bytes.
func appendFrameHead(dst []byte, msg *Message, payloadLen int) ([]byte, error) {
	if payloadLen > MaxPayloadBytes {
		return dst, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, payloadLen)
	}
	start := len(dst)
	dst, err := appendHeader(append(dst, make([]byte, frameLensBytes)...), msg)
	if err != nil {
		return dst[:start], err
	}
	headerLen := len(dst) - start - frameLensBytes
	if headerLen > MaxHeaderBytes {
		return dst[:start], fmt.Errorf("%w: header %d bytes", ErrFrameTooLarge, headerLen)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(headerLen))
	binary.BigEndian.PutUint32(dst[start+4:], uint32(payloadLen))
	return dst, nil
}

// writeFrame is WriteFrame plus the number of wire bytes the frame took,
// so the RPC layer can account header and payload bytes together; pre,
// when non-empty, is an encoded frame that leaves ahead of this one in
// the same write (a write stream's opening frame, OpenStream) and is not
// counted. The frame leaves in one write: pre, prefix and header share a
// buffer, and a payload rides along as the second element of a
// net.Buffers (one writev on a TCP connection), so a TCP_NODELAY socket
// sends one segment train per frame instead of three.
func writeFrame(w io.Writer, pre []byte, msg *Message, payload []byte) (int, error) {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	head, err := appendFrameHead(append(fb.head[:0], pre...), msg, len(payload))
	fb.head = head
	if err != nil {
		return 0, err
	}
	if len(payload) == 0 {
		_, err = w.Write(head)
	} else {
		fb.vec = [2][]byte{head, payload}
		fb.bufs = fb.vec[:]
		_, err = fb.bufs.WriteTo(w)
		fb.vec, fb.bufs = [2][]byte{}, nil // do not pin the caller's payload in the pool
	}
	if err != nil {
		return 0, fmt.Errorf("proto: write frame: %w", err)
	}
	return len(head) - len(pre) + len(payload), nil
}

// ReadFrame reads one frame written by WriteFrame. It reads no byte past
// the frame.
func ReadFrame(r io.Reader) (*Message, []byte, error) {
	msg, payload, _, err := readFrameInto(r, nil, nil)
	return msg, payload, err
}

// readFrameInto is ReadFrame plus the number of wire bytes consumed and
// the payload destinations of frameReader.readFrame, through a pooled
// reader that reads exactly the frame.
func readFrameInto(r io.Reader, dst []byte, scratch *[]byte) (*Message, []byte, int, error) {
	fr := frameReaders.Get().(*frameReader)
	fr.r = r
	msg, payload, n, err := fr.readFrame(false, dst, scratch)
	fr.r, fr.start, fr.end = nil, 0, 0 // on an error, drop what part of the frame did arrive
	frameReaders.Put(fr)
	return msg, payload, n, err
}

var frameReaders = sync.Pool{New: func() any { return newFrameReader(nil) }}

// readBufBytes is the size of a connection's read buffer. One read(2)
// into it takes a whole control frame — a request, a response, a
// stream's opening frame — and, on the serving end of a write stream,
// the head of the chunk that arrived coalesced with the opening frame.
const readBufBytes = 4 << 10

// frameReader reads the frames of one connection (DESIGN.md §15.1). Its
// buffer lives as long as the connection, across the idle pool and a
// server's request loop, so bytes read ahead are never lost between
// exchanges. A frame is read one of two ways:
//
//   - greedy (control frames: Call's response, a Server's request): each
//     read(2) asks for as much as the buffer holds, so a frame arrives
//     in one read;
//   - exact (stream frames): each read asks only for what the frame
//     still owes — prefix, then header, then payload — as an unbuffered
//     reader does, so a chunk payload lands straight in RecvInto's
//     destination.
//
// Either way the bytes already buffered are consumed first.
type frameReader struct {
	r          io.Reader
	buf        []byte
	start, end int // buf[start:end] has been read and not yet consumed
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, readBufBytes)}
}

// buffered is how many bytes were read ahead and not yet consumed.
func (fr *frameReader) buffered() int { return fr.end - fr.start }

// Read implements io.Reader: buffered bytes first, then straight from
// the connection into p.
func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.start < fr.end {
		n := copy(p, fr.buf[fr.start:fr.end])
		fr.start += n
		return n, nil
	}
	return fr.r.Read(p)
}

// peek returns the next n <= len(fr.buf) bytes without consuming them,
// reading until that many are buffered: greedily, or only the n bytes'
// missing tail. Before a greedy read the buffered bytes move to the
// front, so the read can take a whole buffer's worth. An EOF after some
// of the n bytes is io.ErrUnexpectedEOF.
func (fr *frameReader) peek(n int, greedy bool) ([]byte, error) {
	if fr.buffered() < n && (greedy || fr.start+n > len(fr.buf)) {
		fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.start = 0
	}
	for fr.buffered() < n {
		want := fr.buf[fr.end : fr.start+n]
		if greedy {
			want = fr.buf[fr.end:]
		}
		m, err := fr.r.Read(want)
		fr.end += m
		if err != nil && fr.buffered() < n {
			if err == io.EOF && fr.buffered() > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return fr.buf[fr.start : fr.start+n], nil
}

// readFrame reads the next frame, greedily or exactly (see frameReader),
// and returns its wire size; on an error the size is how many of the
// frame's bytes had arrived, zero only if none did.
//
// The payload lands in the first place that holds it: dst's spare
// capacity (the returned payload is dst[len(dst):len(dst)+n]); else,
// when scratch is non-nil and the payload is at most EagerReadBytes,
// *scratch, allocated or grown to the payload's size first (valid until
// the caller's next use of scratch); else a fresh slice.
func (fr *frameReader) readFrame(greedy bool, dst []byte, scratch *[]byte) (*Message, []byte, int, error) {
	lens, err := fr.peek(frameLensBytes, greedy)
	if err != nil {
		return nil, nil, fr.buffered(), fmt.Errorf("proto: read frame lengths: %w", err)
	}
	headerLen := int(binary.BigEndian.Uint32(lens[0:4]))
	payloadLen := int(binary.BigEndian.Uint32(lens[4:8]))
	if headerLen > MaxHeaderBytes {
		return nil, nil, fr.buffered(), fmt.Errorf("%w: header %d bytes", ErrFrameTooLarge, headerLen)
	}
	if payloadLen > MaxPayloadBytes {
		return nil, nil, fr.buffered(), fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, payloadLen)
	}
	var msg Message
	if head := frameLensBytes + headerLen; head <= len(fr.buf) {
		b, err := fr.peek(head, greedy)
		if err != nil {
			return nil, nil, fr.buffered(), fmt.Errorf("proto: read header: %w", err)
		}
		fr.start += head
		// The decoded Message copies out every byte it keeps.
		if err := decodeHeader(b[frameLensBytes:], &msg); err != nil {
			return nil, nil, head, err
		}
	} else {
		fr.start += frameLensBytes
		if err := readHeader(fr, headerLen, &msg); err != nil {
			return nil, nil, frameLensBytes, err
		}
	}
	var payload []byte
	switch {
	case payloadLen == 0:
	case cap(dst)-len(dst) >= payloadLen:
		payload = dst[len(dst) : len(dst)+payloadLen]
		_, err = io.ReadFull(fr, payload)
	case scratch != nil && payloadLen <= EagerReadBytes:
		if cap(*scratch) < payloadLen {
			*scratch = make([]byte, payloadLen)
		}
		payload = (*scratch)[:payloadLen]
		_, err = io.ReadFull(fr, payload)
	default:
		payload, err = readExact(fr, uint32(payloadLen))
	}
	if err != nil {
		return nil, nil, frameLensBytes + headerLen, fmt.Errorf("proto: read payload: %w", err)
	}
	return &msg, payload, frameLensBytes + headerLen + payloadLen, nil
}

// readHeader reads an n-byte header into pooled scratch and decodes it
// into m. The decoded Message copies out every byte it keeps, so the
// scratch goes back to the pool at once.
func readHeader(r io.Reader, n int, m *Message) error {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.head = slices.Grow(fb.head[:0], n)[:n]
	if _, err := io.ReadFull(r, fb.head); err != nil {
		return fmt.Errorf("proto: read header: %w", err)
	}
	return decodeHeader(fb.head, m)
}

// EagerReadBytes is the largest peer-announced length a receiver
// allocates up front. Typical frames (headers, stream chunks) and
// default-size blocks fit in one exact-size allocation; anything larger
// grows only as bytes actually arrive.
const EagerReadBytes = 1 << 20

// readExact reads exactly n announced bytes. The length prefix is
// peer-controlled, so it must not size an allocation on its own: a
// malicious 256 MiB announcement on a connection that then stalls would
// otherwise pin max-frame memory per connection.
func readExact(r io.Reader, n uint32) ([]byte, error) {
	if n <= EagerReadBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var b bytes.Buffer
	b.Grow(EagerReadBytes)
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b.Bytes(), nil
}

// ErrorMessage builds an error response.
func ErrorMessage(err error) *Message {
	return &Message{Type: MsgError, Error: err.Error()}
}

// RemoteError is an error reported by the peer.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// AsError converts an error response message into a Go error, or nil for
// non-error messages.
func (m *Message) AsError() error {
	if m.Type != MsgError {
		return nil
	}
	return &RemoteError{Msg: m.Error}
}
