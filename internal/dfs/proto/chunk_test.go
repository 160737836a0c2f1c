package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// wireStream is a BlockStream over byte buffers: Send encodes frames
// onto w, RecvInto decodes them from r the way Stream does, a MsgError
// frame included, so what a test feeds RecvChunks went through the
// frame codec.
type wireStream struct {
	r       io.Reader
	w       bytes.Buffer
	scratch []byte
}

func (s *wireStream) Send(msg *Message, payload []byte) error {
	return WriteFrame(&s.w, msg, payload)
}

func (s *wireStream) Recv() (*Message, []byte, error) { return s.RecvInto(nil) }

func (s *wireStream) RecvInto(buf []byte) (*Message, []byte, error) {
	msg, payload, _, err := readFrameInto(s.r, buf, &s.scratch)
	if err != nil {
		return nil, nil, err
	}
	if err := msg.AsError(); err != nil {
		return nil, nil, err
	}
	return msg, payload, nil
}

func (s *wireStream) Close() error { return nil }

// chunkFrames is what SendChunks puts on the wire for data[off:].
func chunkFrames(t *testing.T, data []byte, off, size, length int) []byte {
	t.Helper()
	var st wireStream
	if err := SendChunks(&st, 9, data, off, size, nil, length); err != nil {
		t.Fatalf("SendChunks: %v", err)
	}
	return st.w.Bytes()
}

// frames encodes msgs, each with its payload, into wire bytes.
func frames(t *testing.T, msgs ...any) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < len(msgs); i += 2 {
		if err := WriteFrame(&b, msgs[i].(*Message), msgs[i+1].([]byte)); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	return b.Bytes()
}

func TestRecvChunks(t *testing.T) {
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7)
	}
	chunk := func(seq, off, end int, eof bool) (*Message, []byte) {
		return &Message{Type: MsgChunk, Block: 9, Seq: seq, Offset: off, Eof: eof, Checksum: ChunkChecksum(data[off:end])}, data[off:end]
	}
	c0, p0 := chunk(0, 0, 256, false)
	c1, p1 := chunk(1, 256, 512, false)
	bad := *c1
	bad.Checksum++
	gap, pg := chunk(1, 300, 556, false)
	over, po := chunk(1, 256, 600, false)
	short, ps := chunk(1, 256, 512, true)
	full, pf := chunk(0, 0, 600, false)
	for _, tc := range []struct {
		name      string
		have, cap int // the buffer RecvChunks starts from: data[:have], capacity cap
		wire      []byte
		want      error // nil, ErrBadChunk, ErrChecksum, or errTorn
		keep      int   // bytes *buf holds afterwards
	}{
		{"whole block", 0, 600, chunkFrames(t, data, 0, 256, 0), nil, 600},
		{"resume from a non-empty buffer", 256, 600, chunkFrames(t, data, 256, 256, len(data)), nil, 600},
		{"zero-length block", 0, 0, frames(t, &Message{Type: MsgChunk, Eof: true, Checksum: ChunkChecksum(nil)}, []byte{}), nil, 0},
		{"empty Eof after a full chunk", 0, 600, frames(t, full, pf, &Message{Type: MsgChunk, Seq: 1, Offset: 600, Eof: true}, []byte{}), nil, 600},
		{"bad CRC", 0, 600, frames(t, c0, p0, &bad, p1), ErrChecksum, 256},
		{"not a chunk", 0, 600, frames(t, c0, p0, &Message{Type: MsgStreamAck, Offset: 256}, []byte{}), ErrBadChunk, 256},
		{"gap", 0, 600, frames(t, c0, p0, gap, pg), ErrBadChunk, 256},
		{"overrun", 0, 500, frames(t, c0, p0, over, po), ErrBadChunk, 256},
		{"short Eof", 0, 600, frames(t, c0, p0, short, ps), ErrBadChunk, 256},
		{"torn stream", 0, 600, frames(t, c0, p0, c1, p1), errTorn, 512},
		{"error frame", 0, 600, frames(t, c0, p0, ErrorMessage(errors.New("disk gone")), []byte{}), errTorn, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, tc.have, tc.cap)
			copy(buf, data)
			var accepted int
			err := RecvChunks(&wireStream{r: bytes.NewReader(tc.wire)}, 9, &buf, func(msg *Message, chunk []byte) {
				if msg.Offset != accepted+tc.have || ChunkChecksum(chunk) != msg.Checksum {
					t.Errorf("accepted chunk %d at offset %d after %d bytes", msg.Seq, msg.Offset, accepted)
				}
				accepted += len(chunk)
			})
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("err = %v, want nil", err)
			case tc.want == errTorn && (err == nil || errors.Is(err, ErrBadChunk)):
				t.Fatalf("err = %v, want the stream's own error", err)
			case tc.want != nil && tc.want != errTorn && (!errors.Is(err, tc.want) || !errors.Is(err, ErrBadChunk)):
				t.Fatalf("err = %v, want %v (a bad chunk)", err, tc.want)
			}
			if len(buf) != tc.keep || cap(buf) != tc.cap || accepted != tc.keep-tc.have {
				t.Fatalf("buffer holds %d of %d (%d accepted), want %d", len(buf), cap(buf), accepted, tc.keep)
			}
			if !bytes.Equal(buf, data[:tc.keep]) {
				t.Fatal("buffer holds other bytes than the block's")
			}
		})
	}
}

// errTorn marks a case that must fail as the stream failed, not as a
// bad chunk.
var errTorn = errors.New("torn")

// TestSendChunksFrames: the sender cuts data[off:] into size-byte
// chunks numbered from 0, each stamped with its offset, CRC and the
// length it was given, the last one marked Eof.
func TestSendChunksFrames(t *testing.T) {
	data := make([]byte, 600)
	for _, length := range []int{0, len(data)} {
		r := bytes.NewReader(chunkFrames(t, data, 88, 256, length))
		for seq, off := 0, 88; ; seq++ {
			msg, payload, _, err := readFrameInto(r, nil, nil)
			if err != nil {
				t.Fatalf("length %d: frame %d: %v", length, seq, err)
			}
			if msg.Seq != seq || msg.Offset != off || msg.Length != length || msg.Checksum != ChunkChecksum(payload) {
				t.Fatalf("length %d: frame %+v, want seq %d at %d", length, msg, seq, off)
			}
			off += len(payload)
			if msg.Eof != (off == len(data)) {
				t.Fatalf("length %d: Eof %v at %d", length, msg.Eof, off)
			}
			if msg.Eof {
				break
			}
		}
	}
}

// FuzzRecvChunks feeds the receiver arbitrary wire bytes into a buffer
// of arbitrary length and capacity. It must never panic, never accept a
// chunk whose bytes fail its CRC, never grow the buffer past its
// capacity or touch the bytes it already held, and end without error
// exactly when it accepted an Eof chunk that filled the buffer.
func FuzzRecvChunks(f *testing.F) {
	data := bytes.Repeat([]byte("chunk path "), 60)
	var st wireStream
	if err := SendChunks(&st, 9, data, 0, 128, nil, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), uint16(len(data)), st.w.Bytes())
	f.Add(uint16(0), uint16(len(data)-1), st.w.Bytes())
	st.w.Reset()
	if err := SendChunks(&st, 9, data, 200, 64, nil, len(data)); err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(200), uint16(len(data)), st.w.Bytes())
	f.Add(uint16(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, have, capacity uint16, wire []byte) {
		if have > capacity {
			have, capacity = capacity, have
		}
		buf := make([]byte, have, capacity)
		for i := range buf {
			buf[i] = byte(i)
		}
		var accepted int
		var eof bool
		err := RecvChunks(&wireStream{r: bytes.NewReader(wire)}, 9, &buf, func(msg *Message, chunk []byte) {
			if ChunkChecksum(chunk) != msg.Checksum {
				t.Fatalf("accepted chunk %d fails its CRC", msg.Seq)
			}
			accepted += len(chunk)
			eof = msg.Eof
		})
		if cap(buf) != int(capacity) || len(buf) != int(have)+accepted {
			t.Fatalf("buffer %d of %d after %d accepted bytes onto %d of %d", len(buf), cap(buf), accepted, have, capacity)
		}
		for i := range int(have) {
			if buf[i] != byte(i) {
				t.Fatalf("byte %d the buffer held was overwritten", i)
			}
		}
		if (err == nil) != (eof && len(buf) == cap(buf)) {
			t.Fatalf("err = %v after %d bytes (eof=%v) of %d", err, len(buf), eof, cap(buf))
		}
	})
}
