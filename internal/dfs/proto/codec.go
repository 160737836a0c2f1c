package proto

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The frame header is the binary encoding of one Message (DESIGN.md
// §15.1):
//
//	type code (1 byte) | field mask (uvarint) | present fields, in declaration order
//
// A field is present, and its mask bit set, exactly when JSON's
// omitempty would have kept it: a non-zero number, a non-empty string or
// list, a non-nil Health, a true bool. Eof and FullReport are their mask
// bit alone. Integers are zigzag varints, Namespace, Digest and Checksum
// uvarints, strings a uvarint length and the bytes, lists a uvarint
// count and the elements. An element (BlockLocation, Command, FileInfo,
// NodeInfo) and the HealthReport are encoded whole, every field in
// declaration order, a bool as one 0/1 byte and a CommandKind as its
// code byte. Empty lists are not told apart from nil ones: both decode
// as nil.

// msgTypes numbers every MsgType the wire carries: a type's code is its
// index plus one, so zero is never a valid code. MsgWriteBlock is never
// sent and has no code. Nothing persists a frame, so codes (and mask
// bits) need only agree between two ends built from one tree: removing
// a type renumbers the ones after it.
var msgTypes = [...]MsgType{
	MsgCreateFile, MsgAddBlock, MsgCompleteFile, MsgGetLocations, MsgSetRepl,
	MsgDeleteFile, MsgListFiles, MsgStatFile, MsgClusterInfo, MsgFsck,
	MsgDecommission, MsgRegister, MsgHeartbeatDelta,
	MsgBlockReceived, MsgWriteBlockStream, MsgReadBlockStream,
	MsgChunk, MsgStreamAck, MsgOK, MsgError,
}

// cmdKinds numbers the CommandKinds the same way.
var cmdKinds = [...]CommandKind{CmdReplicate, CmdDelete}

// codeOf returns v's wire code in table, or 0 if it has none.
func codeOf[T ~string](table []T, v T) byte {
	for i, t := range table {
		if t == v {
			return byte(i + 1)
		}
	}
	return 0
}

// The field mask: one bit per Message field after Type, in declaration
// order.
const (
	hasPath uint64 = 1 << iota
	hasBlock
	hasError
	hasReplication
	hasMinRacks
	hasPipeline
	hasLocations
	hasNode
	hasRack
	hasDataAddr
	hasCapacity
	hasCommands
	hasFiles
	hasNodes
	hasHealth
	hasLength
	hasChecksum
	hasSeq
	hasEof
	hasChunkSize
	hasOffset
	hasDigest
	hasReceived
	hasDeleted
	hasFullReport
	hasNamespace
	maskEnd

	knownFields = maskEnd - 1
)

// Smallest encoding of one list element, in bytes: a list count is
// checked against the header bytes left divided by these.
const (
	minLocationBytes = 3 // block, length, address count
	minCommandBytes  = 3 // kind, block, target length
	minFileBytes     = 5 // path length, blocks, length, replication, complete
	minNodeBytes     = 8 // id, rack, addr length, blocks, capacity, three bools
)

// fieldMask returns the mask bits of m's non-zero fields.
func (m *Message) fieldMask() uint64 {
	var mask uint64
	set := func(bit uint64, present bool) {
		if present {
			mask |= bit
		}
	}
	set(hasPath, m.Path != "")
	set(hasBlock, m.Block != 0)
	set(hasError, m.Error != "")
	set(hasReplication, m.Replication != 0)
	set(hasMinRacks, m.MinRacks != 0)
	set(hasPipeline, len(m.Pipeline) > 0)
	set(hasLocations, len(m.Locations) > 0)
	set(hasNode, m.Node != 0)
	set(hasRack, m.Rack != 0)
	set(hasDataAddr, m.DataAddr != "")
	set(hasCapacity, m.Capacity != 0)
	set(hasCommands, len(m.Commands) > 0)
	set(hasFiles, len(m.Files) > 0)
	set(hasNodes, len(m.Nodes) > 0)
	set(hasHealth, m.Health != nil)
	set(hasLength, m.Length != 0)
	set(hasChecksum, m.Checksum != 0)
	set(hasSeq, m.Seq != 0)
	set(hasEof, m.Eof)
	set(hasChunkSize, m.ChunkSize != 0)
	set(hasOffset, m.Offset != 0)
	set(hasDigest, m.Digest != 0)
	set(hasReceived, len(m.Received) > 0)
	set(hasDeleted, len(m.Deleted) > 0)
	set(hasFullReport, m.FullReport)
	set(hasNamespace, m.Namespace != 0)
	return mask
}

// appendHeader appends the binary header of m to b. It fails only on a
// MsgType or CommandKind without a wire code.
func appendHeader(b []byte, m *Message) ([]byte, error) {
	code := codeOf(msgTypes[:], m.Type)
	if code == 0 {
		return b, fmt.Errorf("proto: message type %q has no wire code", m.Type)
	}
	mask := m.fieldMask()
	b = append(b, code)
	b = binary.AppendUvarint(b, mask)
	if mask&hasPath != 0 {
		b = appendString(b, m.Path)
	}
	if mask&hasBlock != 0 {
		b = binary.AppendVarint(b, int64(m.Block))
	}
	if mask&hasError != 0 {
		b = appendString(b, m.Error)
	}
	if mask&hasReplication != 0 {
		b = binary.AppendVarint(b, int64(m.Replication))
	}
	if mask&hasMinRacks != 0 {
		b = binary.AppendVarint(b, int64(m.MinRacks))
	}
	if mask&hasPipeline != 0 {
		b = appendStrings(b, m.Pipeline)
	}
	if mask&hasLocations != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Locations)))
		for _, l := range m.Locations {
			b = binary.AppendVarint(b, int64(l.Block))
			b = binary.AppendVarint(b, int64(l.Length))
			b = appendStrings(b, l.Addresses)
		}
	}
	if mask&hasNode != 0 {
		b = binary.AppendVarint(b, int64(m.Node))
	}
	if mask&hasRack != 0 {
		b = binary.AppendVarint(b, int64(m.Rack))
	}
	if mask&hasDataAddr != 0 {
		b = appendString(b, m.DataAddr)
	}
	if mask&hasCapacity != 0 {
		b = binary.AppendVarint(b, int64(m.Capacity))
	}
	if mask&hasCommands != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Commands)))
		for _, c := range m.Commands {
			kind := codeOf(cmdKinds[:], c.Kind)
			if kind == 0 {
				return b, fmt.Errorf("proto: command kind %q has no wire code", c.Kind)
			}
			b = append(b, kind)
			b = binary.AppendVarint(b, int64(c.Block))
			b = appendString(b, c.Target)
		}
	}
	if mask&hasFiles != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Files)))
		for _, f := range m.Files {
			b = appendString(b, f.Path)
			b = binary.AppendVarint(b, int64(f.Blocks))
			b = binary.AppendVarint(b, f.Length)
			b = binary.AppendVarint(b, int64(f.Replication))
			b = appendBool(b, f.Complete)
		}
	}
	if mask&hasNodes != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Nodes)))
		for _, n := range m.Nodes {
			b = binary.AppendVarint(b, int64(n.ID))
			b = binary.AppendVarint(b, int64(n.Rack))
			b = appendString(b, n.Addr)
			b = binary.AppendVarint(b, int64(n.Blocks))
			b = binary.AppendVarint(b, int64(n.Capacity))
			b = appendBool(b, n.Alive)
			b = appendBool(b, n.Draining)
			b = appendBool(b, n.Decommissioned)
		}
	}
	if mask&hasHealth != 0 {
		h := m.Health
		for _, v := range [...]int{
			h.Files, h.Blocks, h.DesiredReplicas, h.ConfirmedReplicas,
			h.UnderReplicatedBlocks, h.UnderSpreadBlocks, h.PendingCommands,
			h.InflightTransfers, h.DeadNodes, h.TombstonedBlocks, h.DrainingNodes,
		} {
			b = binary.AppendVarint(b, int64(v))
		}
		b = appendBool(b, h.Healthy)
	}
	if mask&hasLength != 0 {
		b = binary.AppendVarint(b, int64(m.Length))
	}
	if mask&hasChecksum != 0 {
		b = binary.AppendUvarint(b, uint64(m.Checksum))
	}
	if mask&hasSeq != 0 {
		b = binary.AppendVarint(b, int64(m.Seq))
	}
	if mask&hasChunkSize != 0 {
		b = binary.AppendVarint(b, int64(m.ChunkSize))
	}
	if mask&hasOffset != 0 {
		b = binary.AppendVarint(b, int64(m.Offset))
	}
	if mask&hasDigest != 0 {
		b = binary.AppendUvarint(b, m.Digest)
	}
	if mask&hasReceived != 0 {
		b = appendBlockIDs(b, m.Received)
	}
	if mask&hasDeleted != 0 {
		b = appendBlockIDs(b, m.Deleted)
	}
	if mask&hasNamespace != 0 {
		b = binary.AppendUvarint(b, m.Namespace)
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBlockIDs(b []byte, ids []BlockID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeHeader decodes a binary header into m, which must be zero. The
// header comes from the peer: every count and string length is checked
// against the bytes left before anything is allocated, and an unknown
// type code or mask bit, an overflowing varint, a bool byte other than
// 0/1, a truncated field and trailing bytes are all ErrBadFrame. Every
// string is a substring of one copy of h, so m keeps no reference to h.
func decodeHeader(h []byte, m *Message) error {
	d := decoder{b: h}
	code := d.byte()
	if d.err == nil && (code == 0 || int(code) > len(msgTypes)) {
		d.fail("unknown message type code %d", code)
	}
	mask := d.uvarint()
	if unknown := mask &^ knownFields; unknown != 0 {
		d.fail("unknown field bits %#x", unknown)
	}
	if d.err != nil {
		return d.err
	}
	m.Type = msgTypes[code-1]
	if mask&hasPath != 0 {
		m.Path = d.string()
	}
	if mask&hasBlock != 0 {
		m.Block = BlockID(d.varint())
	}
	if mask&hasError != 0 {
		m.Error = d.string()
	}
	if mask&hasReplication != 0 {
		m.Replication = d.int()
	}
	if mask&hasMinRacks != 0 {
		m.MinRacks = d.int()
	}
	if mask&hasPipeline != 0 {
		m.Pipeline = d.strings()
	}
	if mask&hasLocations != 0 {
		if n := d.count(minLocationBytes); n > 0 {
			m.Locations = make([]BlockLocation, n)
			for i := range m.Locations {
				l := &m.Locations[i]
				l.Block = BlockID(d.varint())
				l.Length = d.int()
				l.Addresses = d.strings()
			}
		}
	}
	if mask&hasNode != 0 {
		m.Node = d.nodeID()
	}
	if mask&hasRack != 0 {
		m.Rack = d.int()
	}
	if mask&hasDataAddr != 0 {
		m.DataAddr = d.string()
	}
	if mask&hasCapacity != 0 {
		m.Capacity = d.int()
	}
	if mask&hasCommands != 0 {
		if n := d.count(minCommandBytes); n > 0 {
			m.Commands = make([]Command, n)
			for i := range m.Commands {
				c := &m.Commands[i]
				if kind := d.byte(); kind != 0 && int(kind) <= len(cmdKinds) {
					c.Kind = cmdKinds[kind-1]
				} else {
					d.fail("unknown command kind code %d", kind)
				}
				c.Block = BlockID(d.varint())
				c.Target = d.string()
			}
		}
	}
	if mask&hasFiles != 0 {
		if n := d.count(minFileBytes); n > 0 {
			m.Files = make([]FileInfo, n)
			for i := range m.Files {
				f := &m.Files[i]
				f.Path = d.string()
				f.Blocks = d.int()
				f.Length = d.varint()
				f.Replication = d.int()
				f.Complete = d.bool()
			}
		}
	}
	if mask&hasNodes != 0 {
		if n := d.count(minNodeBytes); n > 0 {
			m.Nodes = make([]NodeInfo, n)
			for i := range m.Nodes {
				nd := &m.Nodes[i]
				nd.ID = d.nodeID()
				nd.Rack = d.int()
				nd.Addr = d.string()
				nd.Blocks = d.int()
				nd.Capacity = d.int()
				nd.Alive = d.bool()
				nd.Draining = d.bool()
				nd.Decommissioned = d.bool()
			}
		}
	}
	if mask&hasHealth != 0 {
		h := new(HealthReport)
		for _, v := range [...]*int{
			&h.Files, &h.Blocks, &h.DesiredReplicas, &h.ConfirmedReplicas,
			&h.UnderReplicatedBlocks, &h.UnderSpreadBlocks, &h.PendingCommands,
			&h.InflightTransfers, &h.DeadNodes, &h.TombstonedBlocks, &h.DrainingNodes,
		} {
			*v = d.int()
		}
		h.Healthy = d.bool()
		m.Health = h
	}
	if mask&hasLength != 0 {
		m.Length = d.int()
	}
	if mask&hasChecksum != 0 {
		m.Checksum = d.checksum()
	}
	if mask&hasSeq != 0 {
		m.Seq = d.int()
	}
	m.Eof = mask&hasEof != 0
	if mask&hasChunkSize != 0 {
		m.ChunkSize = d.int()
	}
	if mask&hasOffset != 0 {
		m.Offset = d.int()
	}
	if mask&hasDigest != 0 {
		m.Digest = d.uvarint()
	}
	if mask&hasReceived != 0 {
		m.Received = d.blockIDs()
	}
	if mask&hasDeleted != 0 {
		m.Deleted = d.blockIDs()
	}
	m.FullReport = mask&hasFullReport != 0
	if mask&hasNamespace != 0 {
		m.Namespace = d.uvarint()
	}
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// decoder reads one header. The first malformed field sets err; every
// read after that returns a zero value without looking at the input, so
// decodeHeader checks err once at the end.
type decoder struct {
	b   []byte
	s   string // string(b), made by the first non-empty string read
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: header byte %d: %s", ErrBadFrame, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off == len(d.b) {
		d.fail("truncated")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if !d.skipVarint(n) {
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if !d.skipVarint(n) {
		return 0
	}
	return v
}

// skipVarint moves past a varint whose read returned n, or fails.
func (d *decoder) skipVarint(n int) bool {
	switch {
	case n == 0:
		d.fail("truncated varint")
	case n < 0:
		d.fail("varint overflows 64 bits")
	default:
		d.off += n
		return true
	}
	return false
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("%d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *decoder) nodeID() NodeID {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("node id %d overflows int32", v)
		return 0
	}
	return NodeID(v)
}

func (d *decoder) checksum() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("checksum %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool byte is neither 0 nor 1")
	return false
}

// count reads a list length and checks that the header bytes left can
// hold that many elements of at least min bytes each, so a hostile count
// fails before the caller allocates for it.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail("count %d exceeds the %d header bytes left", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) strings() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

func (d *decoder) blockIDs() []BlockID {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = BlockID(d.varint())
	}
	return ids
}
