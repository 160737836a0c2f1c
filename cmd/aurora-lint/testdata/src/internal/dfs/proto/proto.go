// Package proto mirrors the real RPC surface (analyzers match it by
// path suffix) for the ctxdeadline and protoconform fixtures. It
// implements a slice of the DESIGN.md §15 frame table: the stream plane
// and the block-report control types.
package proto

import "time"

// MsgType identifies one frame type on the wire.
type MsgType string

// The §15 frame types this mirror declares. protoconform only requires
// the constants a proto package actually defines, so this stays a
// partial mirror.
const (
	MsgHeartbeatDelta   MsgType = "heartbeat_delta"
	MsgBlockReceived    MsgType = "block_received"
	MsgWriteBlockStream MsgType = "write_block_stream"
	MsgReadBlockStream  MsgType = "read_block_stream"
	MsgChunk            MsgType = "chunk"
	MsgStreamAck        MsgType = "stream_ack"
	MsgOK               MsgType = "ok"
	MsgError            MsgType = "error"
)

// Message is the RPC envelope.
type Message struct {
	Type       MsgType
	Block      int64
	Seq        int
	Checksum   uint32
	Eof        bool
	FullReport bool
	Targets    []string
}

// CallFunc is the injectable RPC signature.
type CallFunc func(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error)

// Call performs one exchange (stub).
func Call(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error) {
	return &Message{Type: MsgError}, nil, nil
}

// BlockStream is one side of an open chunk conversation.
type BlockStream interface {
	// Send writes one frame with its payload.
	Send(m *Message, payload []byte) error
	// Recv reads the next frame.
	Recv() (*Message, []byte, error)
	// RecvInto reads the next frame, its payload into buf's spare
	// capacity when it fits.
	RecvInto(buf []byte) (*Message, []byte, error)
}

// ChunkChecksum is the per-chunk CRC every chunk frame carries.
func ChunkChecksum(payload []byte) uint32 {
	var sum uint32
	for _, b := range payload {
		sum = sum*31 + uint32(b)
	}
	return sum
}

type ChunkFrame struct{ Seq int } // undocumented frame type: pkgdoc must flag it
