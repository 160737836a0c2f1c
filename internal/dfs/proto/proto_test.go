package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := &Message{
		Type:     MsgWriteBlockStream,
		Block:    42,
		Pipeline: []string{"a:1", "b:2"},
		Length:   3,
	}
	payload := []byte{1, 2, 3}
	if err := WriteFrame(&buf, msg, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, gotPayload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Type != msg.Type || got.Block != msg.Block || len(got.Pipeline) != 2 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %v, want %v", gotPayload, payload)
	}
}

// writeLog records each Write it receives.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// The frame layout is fixed — two big-endian lengths, the binary header,
// the payload — and the length prefix never travels in a write of its
// own: prefix and header leave together, and the payload is the only
// other piece (the second element of one writev on a TCP connection). A
// write stream's opening frame rides in the first chunk's head buffer,
// so open plus first chunk cost the writes of the chunk alone.
func TestWriteFrameLayoutAndWriteCount(t *testing.T) {
	msg := &Message{Type: MsgChunk, Block: 42, Seq: 3, Offset: 384, Eof: true, Checksum: 77}
	header := []byte{
		17,               // type code of MsgChunk
		0x82, 0x80, 0x5c, // mask: Block, Checksum, Seq, Eof, Offset (bits 1, 16, 17, 18, 20)
		84,         // Block 42, zigzag
		77,         // Checksum 77, uvarint
		6,          // Seq 3, zigzag
		0x80, 0x06, // Offset 384, zigzag 768
	}
	open, err := appendFrameHead(nil, &Message{Type: MsgWriteBlockStream, Block: 42, Length: 395}, 0)
	if err != nil {
		t.Fatalf("appendFrameHead: %v", err)
	}
	for _, pre := range [][]byte{nil, open} {
		for _, payload := range [][]byte{nil, []byte("block bytes")} {
			var lens [8]byte
			binary.BigEndian.PutUint32(lens[0:4], uint32(len(header)))
			binary.BigEndian.PutUint32(lens[4:8], uint32(len(payload)))
			wantHead := append(append(bytes.Clone(pre), lens[:]...), header...)

			var w writeLog
			n, err := writeFrame(&w, pre, msg, payload)
			if err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			if want := len(wantHead) - len(pre) + len(payload); n != want {
				t.Errorf("writeFrame reported %d wire bytes, want %d (the opening frame is not counted)", n, want)
			}
			want := [][]byte{wantHead}
			if len(payload) > 0 {
				want = append(want, payload)
			}
			if len(w.writes) != len(want) {
				t.Fatalf("frame with %d payload bytes and a %d-byte opening frame left in %d writes, want %d",
					len(payload), len(pre), len(w.writes), len(want))
			}
			for i := range want {
				if !bytes.Equal(w.writes[i], want[i]) {
					t.Errorf("write %d = %q, want %q", i, w.writes[i], want[i])
				}
			}
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: MsgOK}, nil); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	msg, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if msg.Type != MsgOK || payload != nil {
		t.Errorf("got %+v payload %v", msg, payload)
	}
}

func TestFramePayloadTooLarge(t *testing.T) {
	// Header claims an oversized payload.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	buf.WriteString("{}")
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameGarbageHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3, 0, 0, 0, 0})
	buf.WriteString("%%%")
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, &Message{Type: MsgOK}, []byte("abcdef")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw); cut += 3 {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated frame at %d bytes parsed without error", cut)
		}
	}
}

// Property: any message with a random payload round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(block int64, path string, payload []byte) bool {
		var buf bytes.Buffer
		in := &Message{Type: MsgStatFile, Block: BlockID(block), Path: path}
		if err := WriteFrame(&buf, in, payload); err != nil {
			return false
		}
		out, outPayload, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if out.Block != in.Block || out.Path != in.Path {
			return false
		}
		if len(payload) == 0 {
			return len(outPayload) == 0
		}
		return bytes.Equal(outPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsError(t *testing.T) {
	ok := &Message{Type: MsgOK}
	if err := ok.AsError(); err != nil {
		t.Errorf("ok message AsError = %v", err)
	}
	em := ErrorMessage(errors.New("boom"))
	err := em.AsError()
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Error(), "boom") {
		t.Errorf("AsError = %v, want RemoteError(boom)", err)
	}
}

func TestCallAndServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := Serve(ln, func(req *Message, payload []byte) (*Message, []byte) {
		if req.Type != MsgStatFile {
			return ErrorMessage(errors.New("unexpected type")), nil
		}
		return &Message{Type: MsgOK, Block: req.Block}, append([]byte("echo:"), payload...)
	}, time.Second)
	defer srv.Close()

	resp, payload, err := Call(srv.Addr(), &Message{Type: MsgStatFile, Block: 7}, []byte("hi"), time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Block != 7 {
		t.Errorf("resp.Block = %d, want 7", resp.Block)
	}
	if string(payload) != "echo:hi" {
		t.Errorf("payload = %q, want echo:hi", payload)
	}
}

func TestCallRemoteError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := Serve(ln, func(*Message, []byte) (*Message, []byte) {
		return ErrorMessage(errors.New("nope")), nil
	}, time.Second)
	defer srv.Close()

	_, _, err = Call(srv.Addr(), &Message{Type: MsgStatFile}, nil, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("err = %v, want RemoteError", err)
	}
}

func TestCallDialFailure(t *testing.T) {
	if _, _, err := Call("127.0.0.1:1", &Message{Type: MsgOK}, nil, 200*time.Millisecond); err == nil {
		t.Error("Call to dead port succeeded")
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := Serve(ln, func(*Message, []byte) (*Message, []byte) { return nil, nil }, time.Second)
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := Call(addr, &Message{Type: MsgOK}, nil, 200*time.Millisecond); err == nil {
		t.Error("Call after Close succeeded")
	}
}

func TestConcurrentCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := Serve(ln, func(req *Message, _ []byte) (*Message, []byte) {
		return &Message{Type: MsgOK, Block: req.Block}, nil
	}, time.Second)
	defer srv.Close()

	const n = 32
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, _, err := Call(srv.Addr(), &Message{Type: MsgOK, Block: BlockID(i)}, nil, 2*time.Second)
			if err == nil && resp.Block != BlockID(i) {
				err = errors.New("wrong block echoed")
			}
			errc <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}
