// Package namenode mirrors the control-plane dispatcher slice of the
// real namenode: it handles every control MsgType the fixture proto
// package defines and can demand a full report on delta divergence
// (the §15.5 positive case for protoconform).
package namenode

import "fixture/internal/dfs/proto"

// NameNode tracks replica reports (fixture stub).
type NameNode struct {
	reports map[int64]int
	drift   bool
}

// Handle is the one-shot control dispatcher.
func (n *NameNode) Handle(req *proto.Message, payload []byte) (*proto.Message, []byte) {
	switch req.Type {
	case proto.MsgHeartbeatDelta:
		return n.handleReport(req)
	case proto.MsgBlockReceived:
		return n.noteBlock(req)
	}
	return &proto.Message{Type: proto.MsgError}, nil
}

// handleReport takes a full report as the new baseline and sets
// FullReport on a delta's response when the digests have diverged,
// asking the datanode to resync with a full report.
func (n *NameNode) handleReport(req *proto.Message) (*proto.Message, []byte) {
	resp := &proto.Message{Type: proto.MsgOK}
	if req.FullReport {
		n.drift = false
		return resp, nil
	}
	if n.drift {
		resp.FullReport = true
	}
	return resp, nil
}

func (n *NameNode) noteBlock(req *proto.Message) (*proto.Message, []byte) {
	if n.reports == nil {
		n.reports = map[int64]int{}
	}
	n.reports[req.Block]++
	return req, nil
}
