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
	_, err := writeFrame(w, msg, payload)
	return err
}

// frameLensBytes is the size of the two-length prefix of every frame.
const frameLensBytes = 8

// frameBuf is the scratch one frame is assembled or read in: head holds
// a written frame's length prefix and header back to back, or a read
// frame's header, and vec and bufs are the two-element vector (head,
// payload) handed to the writer, kept here so building it allocates
// nothing.
type frameBuf struct {
	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// writeFrame is WriteFrame plus the number of wire bytes written, so the
// RPC layer can account header and payload bytes together. The frame
// leaves in one write: prefix and header share a buffer, and a payload
// rides along as the second element of a net.Buffers (one writev on a
// TCP connection), so a TCP_NODELAY socket sends one segment train per
// frame instead of three.
func writeFrame(w io.Writer, msg *Message, payload []byte) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, len(payload))
	}
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	head, err := appendHeader(append(fb.head[:0], make([]byte, frameLensBytes)...), msg)
	fb.head = head
	if err != nil {
		return 0, err
	}
	headerLen := len(head) - frameLensBytes
	if headerLen > MaxHeaderBytes {
		return 0, fmt.Errorf("%w: header %d bytes", ErrFrameTooLarge, headerLen)
	}
	binary.BigEndian.PutUint32(head[0:4], uint32(headerLen))
	binary.BigEndian.PutUint32(head[4:8], uint32(len(payload)))
	if len(payload) == 0 {
		_, err = w.Write(fb.head)
	} else {
		fb.vec = [2][]byte{fb.head, payload}
		fb.bufs = fb.vec[:]
		_, err = fb.bufs.WriteTo(w)
		fb.vec, fb.bufs = [2][]byte{}, nil // do not pin the caller's payload in the pool
	}
	if err != nil {
		return 0, fmt.Errorf("proto: write frame: %w", err)
	}
	return len(fb.head) + len(payload), nil
}

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r io.Reader) (*Message, []byte, error) {
	msg, payload, _, err := readFrameInto(r, nil, nil)
	return msg, payload, err
}

// readFrameInto is ReadFrame plus the number of wire bytes consumed and
// the payload destinations of readFrameBody.
func readFrameInto(r io.Reader, dst []byte, scratch *[]byte) (*Message, []byte, int, error) {
	var lens [frameLensBytes]byte
	if _, err := io.ReadFull(r, lens[:]); err != nil {
		return nil, nil, 0, fmt.Errorf("proto: read frame lengths: %w", err)
	}
	return readFrameBody(r, lens, dst, scratch)
}

// readFrameBody reads the rest of a frame whose length prefix the caller
// has already read. The transport reads the prefix itself where the wait
// for it means something: a server idling between requests, and a Call
// that may redial only while no response byte has arrived.
//
// The payload lands in the first place that holds it: dst's spare
// capacity (the returned payload is dst[len(dst):len(dst)+n]); else,
// when scratch is non-nil and the payload is at most EagerReadBytes,
// *scratch, allocated or grown to the payload's size first (valid until
// the caller's next use of scratch); else a fresh slice.
func readFrameBody(r io.Reader, lens [frameLensBytes]byte, dst []byte, scratch *[]byte) (*Message, []byte, int, error) {
	headerLen := binary.BigEndian.Uint32(lens[0:4])
	payloadLen := binary.BigEndian.Uint32(lens[4:8])
	if headerLen > MaxHeaderBytes {
		return nil, nil, 0, fmt.Errorf("%w: header %d bytes", ErrFrameTooLarge, headerLen)
	}
	if payloadLen > MaxPayloadBytes {
		return nil, nil, 0, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, payloadLen)
	}
	var msg Message
	if err := readHeader(r, headerLen, &msg); err != nil {
		return nil, nil, 0, err
	}
	var err error
	var payload []byte
	switch {
	case payloadLen == 0:
	case cap(dst)-len(dst) >= int(payloadLen):
		payload = dst[len(dst) : len(dst)+int(payloadLen)]
		_, err = io.ReadFull(r, payload)
	case scratch != nil && payloadLen <= EagerReadBytes:
		if uint32(cap(*scratch)) < payloadLen {
			*scratch = make([]byte, payloadLen)
		}
		payload = (*scratch)[:payloadLen]
		_, err = io.ReadFull(r, payload)
	default:
		payload, err = readExact(r, payloadLen)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("proto: read payload: %w", err)
	}
	return &msg, payload, len(lens) + int(headerLen) + len(payload), nil
}

// readHeader reads an n-byte header into pooled scratch and decodes it
// into m. The decoded Message copies out every byte it keeps, so the
// scratch goes back to the pool at once.
func readHeader(r io.Reader, n uint32, m *Message) error {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.head = slices.Grow(fb.head[:0], int(n))[:n]
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
