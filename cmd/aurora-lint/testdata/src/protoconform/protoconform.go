// Package protoconform is the negative fixture for the protoconform
// analyzer: each function below violates one DESIGN.md §15 clause the
// clean internal/dfs mirrors satisfy.
package protoconform

import "fixture/internal/dfs/proto"

type node struct {
	store map[int64][]byte
	out   []*proto.Message
}

// dispatchLoose claims a stream-opening type on the request/response
// plane (§15.1).
func (n *node) dispatchLoose(req *proto.Message, payload []byte) (*proto.Message, []byte) {
	switch req.Type {
	case proto.MsgWriteBlockStream:
		return req, nil
	}
	return req, nil
}

// streamLoose is a stream dispatcher that acks a write without storing
// or reporting first (§15.4) and claims a control request on the stream
// plane (§15.1).
func (n *node) streamLoose(open *proto.Message, s proto.BlockStream) error {
	switch open.Type {
	case proto.MsgWriteBlockStream:
		return s.Send(&proto.Message{Type: proto.MsgStreamAck, Block: open.Block}, nil)
	case proto.MsgReadBlockStream:
		return nil
	case proto.MsgHeartbeatDelta:
		return nil
	}
	return nil
}

// streamDup claims MsgWriteBlockStream a second time on this package's
// stream plane and handles no read case at all (§15.1 uniqueness and
// completeness).
func (n *node) streamDup(open *proto.Message, s proto.BlockStream) {
	switch open.Type {
	case proto.MsgWriteBlockStream:
		n.store[open.Block] = nil
	}
}

// recvNoVerify consumes chunk frames without ever verifying the
// per-chunk CRC (§15.1).
func (n *node) recvNoVerify(open *proto.Message, s proto.BlockStream) error {
	for {
		m, payload, err := s.Recv()
		if err != nil {
			return err
		}
		if m.Type != proto.MsgChunk {
			return nil
		}
		n.store[open.Block] = append(n.store[open.Block], payload...)
		if m.Eof {
			return nil
		}
	}
}

// recvIntoNoVerify receives chunk frames straight into the block
// buffer and keeps them unverified (§15.1).
func (n *node) recvIntoNoVerify(open *proto.Message, s proto.BlockStream) error {
	buf := make([]byte, 0, 1<<10)
	for {
		m, payload, err := s.RecvInto(buf)
		if err != nil {
			return err
		}
		if m.Type != proto.MsgChunk {
			return nil
		}
		buf = buf[:len(buf)+len(payload)]
		if m.Eof {
			n.store[open.Block] = buf
			return nil
		}
	}
}

// deltaMute builds block reports but never reads the response's
// FullReport flag and can never send a full report (§15.5).
func (n *node) deltaMute() {
	req := &proto.Message{Type: proto.MsgHeartbeatDelta}
	n.out = append(n.out, req)
}

// deltaWaved is the same shape deliberately waved through, proving the
// ignore directive covers protoconform findings.
func (n *node) deltaWaved() {
	//lint:ignore protoconform fixture: retirement path, escalation handled by the caller
	req := &proto.Message{Type: proto.MsgHeartbeatDelta}
	n.out = append(n.out, req)
}

// misuse carries an ignore with no reason: the directive checker flags
// the comment itself.
func (n *node) misuse() {
	//lint:ignore protoconform
	n.out = nil
}

// reportDeaf handles block reports but can never ask the sender for a
// full one (§15.5 on the handling side).
func (n *node) reportDeaf(req *proto.Message, payload []byte) (*proto.Message, []byte) {
	switch req.Type {
	case proto.MsgHeartbeatDelta:
		return &proto.Message{Type: proto.MsgOK}, nil
	case proto.MsgBlockReceived:
		return nil, nil
	}
	return req, nil
}
