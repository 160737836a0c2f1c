package main

import (
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/proto"
)

// Span names the wrappers emit. RPC spans are "nn.<type>" or
// "dn.<type>" after the message type; the rest are fixed.
const (
	spanWriteStream = "client.write_stream"
	spanReadStream  = "client.read_stream"
	spanForward     = "datanode.forward_stream"
	spanTransfer    = "datanode.replicate_transfer"
	spanStorePut    = "store.put"
	spanStoreGet    = "store.get"
)

// hopKey finds the span that delivers a block to one datanode: the
// client's stream to the pipeline head, a forward hop, or a replicate
// transfer. The datanode-side wrappers (store, next hop) look their
// parent up under it, which is how a trace crosses a process boundary
// without the program propagating anything.
type hopKey struct {
	block proto.BlockID
	addr  string
}

// tracer owns the recorder and the cross-hop parent table. A nil
// *tracer installs nothing, so untraced runs use the program's own
// transports untouched.
type tracer struct {
	rec  *recorder
	hops sync.Map // hopKey -> spanRef
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

// opCursor is the open client.op span of one bench worker. A worker
// runs one operation at a time, so every RPC and stream its client
// issues meanwhile belongs to that operation, whichever goroutine of
// the client's read-ahead pool issues it.
type opCursor struct {
	mu  sync.Mutex
	ref spanRef
}

func (c *opCursor) set(ref spanRef) {
	c.mu.Lock()
	c.ref = ref
	c.mu.Unlock()
}

func (c *opCursor) get() spanRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ref
}

// clientOptions returns the transports that put a worker's client under
// trace. Both are installed together: WithCall alone makes the client
// fall back to one-shot block RPCs, which would trace a different data
// path from the one the untraced run measures.
func (t *tracer) clientOptions(namenode string, cur *opCursor) []client.Option {
	call := func(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
		role := "dn."
		if addr == namenode {
			role = "nn."
		}
		parent := cur.get()
		ref, start := t.rec.begin(parent)
		resp, data, err := proto.Call(addr, req, payload, timeout)
		t.rec.finish(ref, parent, role+string(req.Type), start, spanAttrs{block: int64(req.Block), failed: err != nil})
		return resp, data, err
	}
	open := func(addr string, msg *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
		name := spanReadStream
		if msg.Type == proto.MsgWriteBlockStream {
			name = spanWriteStream
		}
		return t.openStream(cur.get(), name, addr, msg, timeout)
	}
	return []client.Option{client.WithCall(call), client.WithOpenStream(open)}
}

// openStream opens a stream whose span lasts until the stream is
// closed, and registers it as the hop that serves (block, addr).
func (t *tracer) openStream(parent spanRef, name, addr string, msg *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
	ref, start := t.rec.begin(parent)
	key := hopKey{block: msg.Block, addr: addr}
	t.hops.Store(key, ref)
	st, err := proto.OpenStream(addr, msg, timeout)
	if err != nil {
		t.hops.Delete(key)
		t.rec.finish(ref, parent, name, start, spanAttrs{block: int64(msg.Block), failed: true})
		return nil, err
	}
	return &tracedStream{BlockStream: st, t: t, ref: ref, parent: parent, name: name, start: start, key: key}, nil
}

// tracedStream ends its span on Close.
type tracedStream struct {
	proto.BlockStream
	t      *tracer
	ref    spanRef
	parent spanRef
	name   string
	start  int64
	key    hopKey
	bytes  atomic.Int64
	failed atomic.Bool
	closed atomic.Bool
}

func (s *tracedStream) Send(msg *proto.Message, payload []byte) error {
	err := s.BlockStream.Send(msg, payload)
	if err != nil {
		s.failed.Store(true)
	}
	s.bytes.Add(int64(len(payload)))
	return err
}

func (s *tracedStream) Recv() (*proto.Message, []byte, error) {
	msg, payload, err := s.BlockStream.Recv()
	if err != nil {
		s.failed.Store(true)
	}
	s.bytes.Add(int64(len(payload)))
	return msg, payload, err
}

func (s *tracedStream) Close() error {
	err := s.BlockStream.Close()
	if s.closed.CompareAndSwap(false, true) {
		s.t.hops.CompareAndDelete(s.key, s.ref)
		s.t.rec.finish(s.ref, s.parent, s.name, s.start, spanAttrs{
			block: int64(s.key.block), bytes: s.bytes.Load(), failed: s.failed.Load(),
		})
	}
	return err
}

// nodeTap is the datanode side of the trace for one node. The node's
// address is only known once it listens, after the wrappers have been
// handed to datanode.Start, so it is filled in afterwards.
type nodeTap struct {
	t    *tracer
	addr atomic.Value // string
}

func (n *nodeTap) self() string {
	if a, ok := n.addr.Load().(string); ok {
		return a
	}
	return ""
}

// parentFor is the span that brought block to this node, if any.
func (n *nodeTap) parentFor(block proto.BlockID) spanRef {
	if v, ok := n.t.hops.Load(hopKey{block: block, addr: n.self()}); ok {
		return v.(spanRef)
	}
	return spanRef{}
}

// call traces the node's one-shot RPCs: heartbeats and block reports to
// the namenode (background, no parent) and replicate transfers to other
// datanodes, which become the delivering hop for the target's store.
func (n *nodeTap) call(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
	if !n.t.rec.on.Load() {
		return proto.Call(addr, req, payload, timeout)
	}
	name, parent := "nn."+string(req.Type), spanRef{}
	switch req.Type {
	case proto.MsgBlockReceived:
		parent = n.parentFor(req.Block)
	case proto.MsgWriteBlock:
		name = spanTransfer
	}
	ref, start := n.t.rec.begin(parent)
	key := hopKey{block: req.Block, addr: addr}
	if req.Type == proto.MsgWriteBlock {
		n.t.hops.Store(key, ref)
	}
	resp, data, err := proto.Call(addr, req, payload, timeout)
	if req.Type == proto.MsgWriteBlock {
		n.t.hops.CompareAndDelete(key, ref)
	}
	n.t.rec.finish(ref, parent, name, start, spanAttrs{block: int64(req.Block), bytes: int64(len(payload)), failed: err != nil})
	return resp, data, err
}

// open traces the node's forward hop of a pipeline write.
func (n *nodeTap) open(addr string, msg *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
	if !n.t.rec.on.Load() {
		return proto.OpenStream(addr, msg, timeout)
	}
	return n.t.openStream(n.parentFor(msg.Block), spanForward, addr, msg, timeout)
}

// tracedStore times the node's block store from outside.
type tracedStore struct {
	datanode.BlockStore
	n *nodeTap
}

func (s tracedStore) Put(id proto.BlockID, data []byte) error {
	if !s.n.t.rec.on.Load() {
		return s.BlockStore.Put(id, data)
	}
	parent := s.n.parentFor(id)
	ref, start := s.n.t.rec.begin(parent)
	err := s.BlockStore.Put(id, data)
	s.n.t.rec.finish(ref, parent, spanStorePut, start, spanAttrs{block: int64(id), bytes: int64(len(data)), failed: err != nil})
	return err
}

func (s tracedStore) Get(id proto.BlockID) ([]byte, error) {
	if !s.n.t.rec.on.Load() {
		return s.BlockStore.Get(id)
	}
	parent := s.n.parentFor(id)
	ref, start := s.n.t.rec.begin(parent)
	data, err := s.BlockStore.Get(id)
	s.n.t.rec.finish(ref, parent, spanStoreGet, start, spanAttrs{block: int64(id), bytes: int64(len(data)), failed: err != nil})
	return data, err
}
