package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// listReply is a list_files response of n entries, the largest header a
// metadata exchange carries.
func listReply(n int) *Message {
	files := make([]FileInfo, n)
	for i := range files {
		files[i] = FileInfo{Path: fmt.Sprintf("/meta/f%05d", i), Blocks: 1, Length: 512, Replication: 3, Complete: i%7 != 0}
	}
	return &Message{Type: MsgOK, Files: files}
}

// fullReport is a full block report of n blocks: a heartbeat_delta
// from the empty set.
func fullReport(n int) *Message {
	blocks := make([]BlockID, n)
	for i := range blocks {
		blocks[i] = BlockID(i*131 + 7)
	}
	return &Message{Type: MsgHeartbeatDelta, Node: 3, FullReport: true, Received: blocks}
}

// fsckReply is a fsck response with every HealthReport field set.
func fsckReply() *Message {
	return &Message{Type: MsgOK, Health: &HealthReport{
		Files: 1000, Blocks: 1200, DesiredReplicas: 3600, ConfirmedReplicas: 3598,
		UnderReplicatedBlocks: 2, UnderSpreadBlocks: 1, PendingCommands: 4,
		InflightTransfers: 2, DeadNodes: 1, TombstonedBlocks: 3, DrainingNodes: 1,
	}}
}

// codecCases is one Message per MsgType the tree sends — requests and
// the responses they draw — each carrying every field that type uses,
// plus the edge values: a negative Block, a Digest with its top bit set,
// a zero-valued non-nil Health, and lists of length 0, 1 and many.
func codecCases() []*Message {
	many := []BlockID{1, -2, 1 << 40, math.MaxInt64, math.MinInt64}
	return []*Message{
		{Type: MsgCreateFile, Path: "/a/b", Replication: 3, MinRacks: 2},
		{Type: MsgAddBlock, Path: "/a/b", Length: 1 << 20, DataAddr: "127.0.0.1:9000"},
		{Type: MsgOK, Block: -7, Pipeline: []string{"dn0:1", "dn1:2", "dn2:3"}},
		{Type: MsgCompleteFile, Path: "/a/b"},
		{Type: MsgGetLocations, Path: "/probe/f00042"},
		{Type: MsgOK, Locations: []BlockLocation{
			{Block: 1, Length: 4096, Addresses: []string{"dn0:1", "dn1:2"}},
			{Block: -2, Length: 0, Addresses: nil},
			{Block: 3, Length: 17, Addresses: []string{"dn2:3"}},
		}},
		{Type: MsgSetRepl, Path: "/hot", Replication: 5},
		{Type: MsgDeleteFile, Path: "/a/b"},
		{Type: MsgListFiles},
		listReply(1000),
		{Type: MsgStatFile, Path: "/a/b"},
		listReply(1),
		{Type: MsgClusterInfo},
		{Type: MsgOK, Nodes: []NodeInfo{
			{ID: 0, Rack: 0, Addr: "dn0:1", Blocks: 12, Capacity: 512, Alive: true},
			{ID: 1, Rack: 1, Addr: "dn1:2", Capacity: 512, Draining: true},
			{ID: math.MaxInt32, Rack: 1, Addr: "dn2:3", Alive: true, Decommissioned: true},
		}},
		{Type: MsgFsck},
		fsckReply(),
		{Type: MsgOK, Health: &HealthReport{}},
		{Type: MsgOK, Health: &HealthReport{Files: 1, Healthy: true}},
		{Type: MsgDecommission, Node: 2},
		{Type: MsgRegister, DataAddr: "127.0.0.1:9000", Rack: 1, Capacity: 4096},
		{Type: MsgOK, Node: 4},
		fullReport(1),
		fullReport(1000),
		{Type: MsgHeartbeatDelta, Node: 1, FullReport: true, Received: []BlockID{}},
		{Type: MsgOK, Commands: []Command{
			{Kind: CmdReplicate, Block: 11, Target: "dn3:4"},
			{Kind: CmdDelete, Block: -13},
		}},
		{Type: MsgHeartbeatDelta, Node: 1, Digest: 0x9e3779b97f4a7c15, Received: many, Deleted: []BlockID{9}},
		{Type: MsgHeartbeatDelta, Node: 1, Digest: math.MaxUint64, Received: []BlockID{}},
		{Type: MsgOK, Commands: []Command{{Kind: CmdDelete, Block: 5}}, FullReport: true},
		{Type: MsgBlockReceived, Node: 2, Block: 99},
		{Type: MsgWriteBlockStream, Block: 42, Pipeline: []string{"dn1:2"}, Length: 256 << 20, Checksum: math.MaxUint32, ChunkSize: 128 << 10},
		{Type: MsgReadBlockStream, Block: 42, ChunkSize: 64 << 10, Offset: 131072},
		{Type: MsgChunk, Block: 42, Seq: 3, Offset: 384, Eof: true, Length: 1000, Checksum: 77},
		{Type: MsgChunk, Block: 42},
		{Type: MsgStreamAck, Block: 42, Offset: 1000, Checksum: 1 << 31},
		{Type: MsgOK},
		{Type: MsgError, Error: "namenode: file exists: /a/b"},
	}
}

// jsonRoundTrip is what the JSON header codec made of m: the reference
// the binary codec must reproduce exactly.
func jsonRoundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func frameRoundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m, nil); err != nil {
		t.Fatalf("WriteFrame(%s): %v", m.Type, err)
	}
	out, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame(%s): %v", m.Type, err)
	}
	return out
}

// Field presence is JSON's omitempty: a decoded header is exactly what
// the JSON round trip yields, for every type the tree sends.
func TestCodecMatchesJSON(t *testing.T) {
	sent := map[MsgType]bool{}
	for i, m := range codecCases() {
		sent[m.Type] = true
		got, want := frameRoundTrip(t, m), jsonRoundTrip(t, m)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%s): binary round trip differs from JSON\nbinary: %+v\njson:   %+v", i, m.Type, got, want)
		}
	}
	for _, typ := range msgTypes {
		if !sent[typ] {
			t.Errorf("no codec case sends %s", typ)
		}
	}
}

// rawFrame wraps a header in a length prefix with no payload.
func rawFrame(header ...byte) []byte {
	lens := make([]byte, frameLensBytes, frameLensBytes+len(header))
	binary.BigEndian.PutUint32(lens[0:4], uint32(len(header)))
	return append(lens, header...)
}

// frame is rawFrame of a type code, a field mask and raw field bytes.
func frame(code byte, mask uint64, fields ...byte) []byte {
	header := binary.AppendUvarint([]byte{code}, mask)
	return rawFrame(append(header, fields...)...)
}

func TestCodecRejects(t *testing.T) {
	ok := codeOf(msgTypes[:], MsgOK)
	// Several rows corrupt this one-file reply, which is exactly what the
	// encoder writes for it.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: MsgOK, Files: []FileInfo{{Complete: true}}}, nil); err != nil {
		t.Fatal(err)
	}
	if want := frame(ok, hasFiles, 1, 0, 0, 0, 0, 1); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("one-file reply = % x, want % x", buf.Bytes(), want)
	}
	tooLarge := rawFrame()
	binary.BigEndian.PutUint32(tooLarge[0:4], MaxHeaderBytes+1)

	for _, tc := range []struct {
		name string
		wire []byte
		want error
	}{
		{"empty header", rawFrame(), ErrBadFrame},
		{"type code 0", frame(0, 0), ErrBadFrame},
		{"type code past the table", frame(byte(len(msgTypes)+1), 0), ErrBadFrame},
		{"unknown mask bit", frame(ok, maskEnd), ErrBadFrame},
		{"mask varint overflow", rawFrame(ok, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), ErrBadFrame},
		{"field varint overflow", frame(ok, hasBlock, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), ErrBadFrame},
		{"node id past int32", frame(ok, hasNode, 0x80, 0x80, 0x80, 0x80, 0x10), ErrBadFrame},
		{"checksum past uint32", frame(ok, hasChecksum, 0x80, 0x80, 0x80, 0x80, 0x10), ErrBadFrame},
		{"bool byte 2", frame(ok, hasFiles, 1, 0, 0, 0, 0, 2), ErrBadFrame},
		{"unknown command kind", frame(ok, hasCommands, 1, 3, 2, 0), ErrBadFrame},
		{"trailing byte", frame(ok, hasBlock, 2, 0), ErrBadFrame},
		{"truncated field", frame(ok, hasBlock), ErrBadFrame},
		{"truncated varint", frame(ok, hasBlock, 0x80), ErrBadFrame},
		{"string past the header", frame(ok, hasPath, 5, 'a', 'b'), ErrBadFrame},
		{"list count past the header", frame(ok, hasFiles, 2, 0, 0, 0, 0, 1), ErrBadFrame},
		{"header over the limit", tooLarge, ErrFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadFrame(bytes.NewReader(tc.wire)); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// A list count the header bytes cannot back fails before the decoder
// allocates for it: a 2^24-entry file list announced in a 9-byte header
// would otherwise make a ~1 GiB slice.
func TestCodecHostileCountDoesNotAllocate(t *testing.T) {
	header := binary.AppendUvarint([]byte{codeOf(msgTypes[:], MsgOK)}, hasFiles)
	header = binary.AppendUvarint(header, 1<<24)
	header = append(header, 0, 0, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeHeader(header, new(Message))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("rejecting the count allocated %d bytes", grew)
	}
}

func TestCodecEncodeRejects(t *testing.T) {
	for _, m := range []*Message{
		{Type: "bogus"},
		{Type: MsgWriteBlock},
		{Type: MsgOK, Commands: []Command{{Kind: "bogus"}}},
	} {
		if err := WriteFrame(new(bytes.Buffer), m, nil); err == nil {
			t.Errorf("WriteFrame(%+v) succeeded, want an error", m)
		}
	}
	huge := &Message{Type: MsgError, Error: string(make([]byte, MaxHeaderBytes))}
	if err := WriteFrame(new(bytes.Buffer), huge, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized header: err = %v, want ErrFrameTooLarge", err)
	}
}
