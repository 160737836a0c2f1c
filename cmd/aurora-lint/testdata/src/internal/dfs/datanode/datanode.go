// Package datanode mirrors the real datanode's §15 handler surface so
// protoconform's head-durable, chunk-integrity and delta-escalation
// checks have a fully conformant fixture (and the seeded mutation test
// has a subject to break).
package datanode

import (
	"errors"
	"time"

	"fixture/internal/dfs/proto"
)

var errBadStream = errors.New("unexpected frame")

// Store is the block store slice the handlers need.
type Store struct {
	blocks map[int64][]byte
}

// Put stores one block replica.
func (s *Store) Put(block int64, payload []byte) {
	if s.blocks == nil {
		s.blocks = map[int64][]byte{}
	}
	s.blocks[block] = payload
}

// Get returns one block replica.
func (s *Store) Get(block int64) ([]byte, bool) {
	b, ok := s.blocks[block]
	return b, ok
}

// DataNode is the fixture handler owner.
type DataNode struct {
	store    Store
	namenode string
	pending  []int64
	full     bool // the next report is a full one
	outbox   []*proto.Message
	dropped  int
}

// noteReceived queues the block for the next report.
func (d *DataNode) noteReceived(block int64) {
	d.pending = append(d.pending, block)
}

// reportReceived is the head's arrival report; it is what makes the
// write path head-durable before the commit.
func (d *DataNode) reportReceived(block int64) {
	d.outbox = append(d.outbox, &proto.Message{Type: proto.MsgBlockReceived, Block: block})
}

// handleStream is the stream-plane dispatcher.
func (d *DataNode) handleStream(open *proto.Message, s proto.BlockStream) error {
	switch open.Type {
	case proto.MsgWriteBlockStream:
		return d.handleWriteStream(open, s)
	case proto.MsgReadBlockStream:
		return d.handleReadStream(open, s)
	}
	return errBadStream
}

// handleWriteStream is §15.4-conformant: it verifies every chunk CRC,
// stores the block, records it for the next report and reports it, and
// only then acks the stream.
func (d *DataNode) handleWriteStream(open *proto.Message, s proto.BlockStream) error {
	buf := make([]byte, 0, 1<<10)
	for {
		m, payload, err := s.RecvInto(buf)
		if err != nil {
			return err
		}
		if m.Type != proto.MsgChunk {
			return errBadStream
		}
		if proto.ChunkChecksum(payload) != m.Checksum {
			return errBadStream
		}
		buf = buf[:len(buf)+len(payload)]
		if m.Eof {
			break
		}
	}
	d.store.Put(open.Block, buf)
	d.noteReceived(open.Block)
	d.reportReceived(open.Block)
	return s.Send(&proto.Message{Type: proto.MsgStreamAck, Block: open.Block}, nil)
}

// handleReadStream streams the block back as checksum-stamped chunks.
func (d *DataNode) handleReadStream(open *proto.Message, s proto.BlockStream) error {
	payload, ok := d.store.Get(open.Block)
	if !ok {
		return errBadStream
	}
	m := &proto.Message{Type: proto.MsgChunk, Block: open.Block, Checksum: proto.ChunkChecksum(payload), Eof: true}
	return s.Send(m, payload)
}

// heartbeatOnce sends a block report, a full one when the namenode
// set FullReport on the last response (§15.5 on the sending side).
func (d *DataNode) heartbeatOnce() {
	req := &proto.Message{Type: proto.MsgHeartbeatDelta, Block: int64(len(d.pending)), FullReport: d.full}
	resp, _, err := proto.Call(d.namenode, req, nil, time.Second)
	if err != nil {
		d.dropped++
		return
	}
	d.full = resp.FullReport
}
