package proto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzReadFrame throws arbitrary wire bytes at the frame decoder. The
// decoder must never panic, must never claim to have consumed more
// bytes than it was given, and anything it accepts must survive a
// re-encode/re-decode round trip unchanged. The seed corpus is built
// here from Messages, never kept as frame bytes, so renumbering the
// type codes or mask bits cannot leave it silently stale. It spans the
// message shapes and the heaviest headers: a 1 000-entry list_files
// reply, a 1 000-block full report (a heartbeat_delta with FullReport
// set), an fsck reply.
func FuzzReadFrame(f *testing.F) {
	seed := func(msg *Message, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg, payload); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Message{Type: MsgHeartbeatDelta, Node: NodeID(1), Digest: 0x9e3779b97f4a7c15, Received: []BlockID{4, -5}}, nil)
	seed(&Message{Type: MsgWriteBlockStream, Block: 42, Pipeline: []string{"a", "b"}}, []byte("block-bytes"))
	seed(&Message{Type: MsgChunk, Seq: 3, Eof: true}, bytes.Repeat([]byte{0xab}, 512))
	seed(&Message{Type: MsgRegister, DataAddr: "127.0.0.1:9000", Rack: 1, Capacity: 4096}, nil)
	seed(&Message{Type: MsgHeartbeatDelta, Node: 2, Digest: 0xdeadbeefcafef00d, Received: []BlockID{7, 8, 9}, Deleted: []BlockID{3}}, nil)
	seed(&Message{Type: MsgOK, Locations: []BlockLocation{
		{Block: 1, Length: 4096, Addresses: []string{"dn0:1", "dn1:2", "dn2:3"}},
		{Block: 2, Length: 512, Addresses: []string{"dn3:4"}},
	}}, nil)
	seed(&Message{Type: MsgOK, Nodes: []NodeInfo{
		{ID: 0, Rack: 0, Addr: "dn0:1", Blocks: 3, Capacity: 512, Alive: true},
		{ID: 1, Rack: 1, Addr: "dn1:2", Capacity: 512, Draining: true},
	}}, nil)
	seed(&Message{Type: MsgOK, FullReport: true, Commands: []Command{
		{Kind: CmdReplicate, Block: 11, Target: "dn3:4"},
		{Kind: CmdDelete, Block: 12},
	}}, nil)
	chunk := bytes.Repeat([]byte{7}, 44)
	seed(&Message{Type: MsgChunk, Block: 42, Seq: 1, Offset: 256, Eof: true, Length: 300, Checksum: ChunkChecksum(chunk)}, chunk)
	seed(listReply(1000), nil)
	seed(fullReport(1000), nil)
	seed(fsckReply(), nil)
	// Announced lengths the data can't back: 1 GiB payload, no bytes.
	huge := frame(codeOf(msgTypes[:], MsgOK), 0)
	binary.BigEndian.PutUint32(huge[4:8], 1<<30)
	f.Add(huge)
	// A list count far past the header bytes.
	f.Add(frame(codeOf(msgTypes[:], MsgOK), hasFiles, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, payload, n, err := readFrameInto(bytes.NewReader(data), nil, nil)
		// A stream's decode into its reused buffer must agree with it,
		// and so must a RecvInto's decode into the spare capacity of a
		// destination — which must then hold the payload in place.
		var scratch []byte
		msgS, payloadS, nS, errS := readFrameInto(bytes.NewReader(data), nil, &scratch)
		if (err == nil) != (errS == nil) || nS != n || !reflect.DeepEqual(msg, msgS) || !bytes.Equal(payload, payloadS) {
			t.Fatalf("decode into a reused buffer differs: %d bytes, %v vs %d bytes, %v", nS, errS, n, err)
		}
		dst := make([]byte, 3, 3+len(data))
		msgD, payloadD, nD, errD := readFrameInto(bytes.NewReader(data), dst, &scratch)
		if (err == nil) != (errD == nil) || nD != n || !reflect.DeepEqual(msg, msgD) || !bytes.Equal(payload, payloadD) {
			t.Fatalf("decode into a destination differs: %d bytes, %v vs %d bytes, %v", nD, errD, n, err)
		}
		if len(payloadD) > 0 && &payloadD[0] != &dst[:cap(dst)][len(dst)] {
			t.Fatalf("a %d-byte payload that fits the destination was not read into it", len(payloadD))
		}
		// So must a connection's greedy read, which takes the bytes in
		// buffer-sized reads instead of frame-sized ones.
		msgG, payloadG, nG, errG := newFrameReader(bytes.NewReader(data)).readFrame(true, nil, nil)
		if (err == nil) != (errG == nil) || (err == nil && nG != n) || !reflect.DeepEqual(msg, msgG) || !bytes.Equal(payload, payloadG) {
			t.Fatalf("greedy decode differs: %d bytes, %v vs %d bytes, %v", nG, errG, n, err)
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d bytes of a %d-byte input", n, len(data))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		msg2, payload2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("header did not round-trip:\nfirst:  %+v\nsecond: %+v", msg, msg2)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("payload did not round-trip: %d bytes vs %d bytes", len(payload), len(payload2))
		}
	})
}

// FuzzDigestMerge pins the algebra the incremental block reports lean
// on: the xor-of-splitmix64 set digest must be order-independent,
// incrementally updatable in O(1) per event, and self-inverse on
// add/remove pairs (DESIGN.md §15.5).
func FuzzDigestMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []BlockID
		for len(data) >= 8 {
			ids = append(ids, BlockID(binary.BigEndian.Uint64(data)))
			data = data[8:]
		}
		full := BlockSetDigest(ids)

		// Folding one event at a time must land on the same digest.
		var inc uint64
		for _, id := range ids {
			inc ^= BlockDigest(id)
		}
		if inc != full {
			t.Fatalf("incremental fold %#x != BlockSetDigest %#x", inc, full)
		}

		// Order independence: the reversed set digests identically.
		rev := make([]BlockID, len(ids))
		for i, id := range ids {
			rev[len(ids)-1-i] = id
		}
		if got := BlockSetDigest(rev); got != full {
			t.Fatalf("reversed set digest %#x != %#x", got, full)
		}

		// Add-then-remove cancels: re-xoring every id restores zero,
		// which is what lets a delta retransmit stay idempotent.
		d := full
		for _, id := range ids {
			d ^= BlockDigest(id)
		}
		if d != 0 {
			t.Fatalf("add/remove did not cancel: residue %#x", d)
		}
	})
}
