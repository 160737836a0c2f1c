package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// fakeServer is a scripted proto server for client unit tests.
type fakeServer struct {
	srv *proto.Server

	mu     sync.Mutex
	handle func(req *proto.Message, payload []byte) (*proto.Message, []byte)
	calls  []proto.MsgType
}

func startFake(t *testing.T, handle func(req *proto.Message, payload []byte) (*proto.Message, []byte)) *fakeServer {
	t.Helper()
	f := &fakeServer{handle: handle}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f.srv = proto.Serve(ln, func(req *proto.Message, payload []byte) (*proto.Message, []byte) {
		f.mu.Lock()
		f.calls = append(f.calls, req.Type)
		h := f.handle
		f.mu.Unlock()
		return h(req, payload)
	}, time.Second)
	t.Cleanup(func() { _ = f.srv.Close() })
	return f
}

func (f *fakeServer) callTypes() []proto.MsgType {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]proto.MsgType(nil), f.calls...)
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	var blocks []int // lengths of written chunks
	var mu sync.Mutex

	dn := startStreamFake(t, acceptWrite(t, func(_ *proto.Message, data []byte) {
		mu.Lock()
		blocks = append(blocks, len(data))
		mu.Unlock()
	}))
	var nextBlock proto.BlockID
	nn := startFake(t, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		switch req.Type {
		case proto.MsgCreateFile, proto.MsgCompleteFile:
			return &proto.Message{Type: proto.MsgOK}, nil
		case proto.MsgAddBlock:
			nextBlock++
			return &proto.Message{Type: proto.MsgOK, Block: nextBlock, Pipeline: []string{dn}}, nil
		default:
			return proto.ErrorMessage(errors.New("unexpected")), nil
		}
	})
	c := New(nn.srv.Addr(), WithBlockSize(100), WithSeed(1), WithChunkSize(64))
	data := make([]byte, 250) // 100 + 100 + 50
	if err := c.Create("/f", data, 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(blocks) != 3 || blocks[0] != 100 || blocks[1] != 100 || blocks[2] != 50 {
		t.Errorf("block lengths = %v, want [100 100 50]", blocks)
	}
	// Protocol order: create, then per-block add, then complete.
	types := nn.callTypes()
	if types[0] != proto.MsgCreateFile || types[len(types)-1] != proto.MsgCompleteFile {
		t.Errorf("call order = %v", types)
	}
}

func TestCreateEmptyRejected(t *testing.T) {
	c := New("127.0.0.1:1", WithSeed(1))
	if err := c.Create("/f", nil, 0); !errors.Is(err, ErrEmptyFile) {
		t.Errorf("err = %v, want ErrEmptyFile", err)
	}
}

func TestReadFailsOverAcrossReplicas(t *testing.T) {
	good := []byte("good data")
	deadAddr := "127.0.0.1:1"
	gooddn := startStreamFake(t, serveChunks(good, 0))
	nn := startFake(t, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Locations: []proto.BlockLocation{
			{Block: 1, Length: len(good), Addresses: []string{deadAddr, gooddn}},
		}}, nil
	})
	c := New(nn.srv.Addr(), WithSeed(2), WithTimeout(300*time.Millisecond))
	// Whichever order the RNG picks, the dead replica must be skipped.
	for i := 0; i < 5; i++ {
		got, err := c.Read("/f")
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, good) {
			t.Fatal("wrong data")
		}
	}
}

func TestReadRejectsChecksumMismatch(t *testing.T) {
	bad := []byte("tampered")
	dn := startStreamFake(t, func(open *proto.Message, _ []byte, st proto.BlockStream) {
		// The chunk's checksum does not match its payload.
		_ = st.Send(&proto.Message{
			Type: proto.MsgChunk, Block: open.Block, Eof: true,
			Length: len(bad), Checksum: proto.ChunkChecksum(bad) + 1,
		}, bad)
	})
	nn := startFake(t, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Locations: []proto.BlockLocation{
			{Block: 1, Length: len(bad), Addresses: []string{dn}},
		}}, nil
	})
	c := New(nn.srv.Addr(), WithSeed(3), WithTimeout(300*time.Millisecond))
	_, err := c.Read("/f")
	if !errors.Is(err, ErrNoReplica) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrNoReplica wrapping ErrChecksum (all replicas bad)", err)
	}
}

func TestReadNoReplicas(t *testing.T) {
	nn := startFake(t, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Locations: []proto.BlockLocation{
			{Block: 1, Length: 3, Addresses: nil},
		}}, nil
	})
	c := New(nn.srv.Addr(), WithSeed(4))
	if _, err := c.Read("/f"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("err = %v, want ErrNoReplica", err)
	}
}

func TestStatMalformedResponse(t *testing.T) {
	nn := startFake(t, func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Files: []proto.FileInfo{{}, {}}}, nil
	})
	c := New(nn.srv.Addr(), WithSeed(5))
	if _, err := c.Stat("/f"); err == nil {
		t.Error("malformed stat accepted")
	}
}

func TestLockedRandConcurrency(t *testing.T) {
	lr := newLockedRand(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := lr.perm(5)
				if len(p) != 5 {
					t.Errorf("perm length %d", len(p))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestClientOptions(t *testing.T) {
	c := New("addr:1",
		WithBlockSize(42),
		WithTimeout(7*time.Second),
		WithLocalDataNode("dn:9"),
		WithSeed(9))
	if c.blockSize != 42 || c.timeout != 7*time.Second || c.localDataAddr != "dn:9" {
		t.Errorf("options not applied: %+v", c)
	}
}
