package datanode

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"aurora/internal/dfs/proto"
)

// ErrCorrupt reports a stored replica whose bytes no longer match their
// checksum.
var ErrCorrupt = errors.New("datanode: block corrupt (checksum mismatch)")

// BlockStore is the datanode's storage engine. Implementations must be
// safe for concurrent use. Put overwrites; a successful Put takes
// ownership of data — the store may keep the slice or recycle it, so
// the caller must not touch it again — while a failed one leaves it the
// caller's. Get returns a private copy.
type BlockStore interface {
	Put(id proto.BlockID, data []byte) error
	Get(id proto.BlockID) ([]byte, error)
	Delete(id proto.BlockID) bool
	Has(id proto.BlockID) bool
	List() []proto.BlockID
	Len() int
}

// Checksum is the block checksum used end to end: the client stamps it
// on write, every datanode in the pipeline verifies before storing, and
// readers verify after transfer (HDFS uses CRC32 the same way). It is
// the same CRC32C the wire protocol stamps on every chunk.
func Checksum(data []byte) uint32 { return proto.ChunkChecksum(data) }

// memStore keeps replicas in memory with their checksums, verifying on
// every read so corruption (e.g. a test flipping bytes) surfaces as
// ErrCorrupt rather than silent bad data. A replica is the very buffer
// Put was given; a replaced or deleted one goes back to the free list.
type memStore struct {
	capacity int
	free     *blockBufs // supplies Get's private copies, takes back dropped replicas

	// mu is held for reading while Get verifies and copies a replica, so
	// Put and Delete cannot recycle a buffer a Get is still reading.
	mu     sync.RWMutex
	blocks map[proto.BlockID][]byte
	sums   map[proto.BlockID]uint32
}

// newMemStore creates an in-memory store bounded to capacity blocks
// that draws on and recycles into free.
func newMemStore(capacity int, free *blockBufs) *memStore {
	return &memStore{
		capacity: capacity,
		free:     free,
		blocks:   make(map[proto.BlockID][]byte),
		sums:     make(map[proto.BlockID]uint32),
	}
}

func (s *memStore) Put(id proto.BlockID, data []byte) error {
	sum := Checksum(data)
	s.mu.Lock()
	old, exists := s.blocks[id]
	if n := len(s.blocks); !exists && n >= s.capacity {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d blocks", ErrStoreFull, n)
	}
	s.blocks[id] = data
	s.sums[id] = sum
	s.mu.Unlock()
	s.free.put(old)
	return nil
}

func (s *memStore) Get(id proto.BlockID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	if Checksum(data) != s.sums[id] {
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, id)
	}
	cp := s.free.get(len(data))
	copy(cp, data)
	return cp, nil
}

// corrupt replaces stored bytes without refreshing the checksum (fault
// injection for tests).
func (s *memStore) corrupt(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.blocks[id]
	if !ok {
		return fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	s.blocks[id] = slices.Clone(data) // s.sums[id] intentionally left stale
	s.free.put(old)
	return nil
}

func (s *memStore) Delete(id proto.BlockID) bool {
	s.mu.Lock()
	data, ok := s.blocks[id]
	delete(s.blocks, id)
	delete(s.sums, id)
	s.mu.Unlock()
	s.free.put(data)
	return ok
}

func (s *memStore) Has(id proto.BlockID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[id]
	return ok
}

func (s *memStore) List() []proto.BlockID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]proto.BlockID, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	return out
}

func (s *memStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// diskStore persists replicas as files under a directory, one file per
// block, with the CRC32C checksum stored in a 4-byte header. It survives
// datanode restarts: List scans the directory on demand.
type diskStore struct {
	dir      string
	capacity int
	free     *blockBufs // supplies Get's read buffers, takes back Put's

	mu    sync.Mutex
	index map[proto.BlockID]struct{}
}

// newDiskStore opens (or creates) a disk-backed store in dir and indexes
// any blocks already present. Get reads into buffers from free, and a
// successful Put hands its written buffer back to it.
func newDiskStore(dir string, capacity int, free *blockBufs) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datanode: create store dir: %w", err)
	}
	s := &diskStore{dir: dir, capacity: capacity, free: free, index: make(map[proto.BlockID]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("datanode: scan store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, "blk_") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(name, "blk_"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		s.index[proto.BlockID(id)] = struct{}{}
	}
	return s, nil
}

const namespaceFile = "namespace" // in a store dir: the node's namespace ID, in decimal

// readNamespace returns the namespace ID recorded in dir, or 0 if none.
func readNamespace(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, namespaceFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	ns, perr := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err = cmp.Or(err, perr); err != nil {
		return 0, fmt.Errorf("datanode: read namespace ID: %w", err)
	}
	return ns, nil
}

// writeNamespace records ns in dir, write-then-rename like a block.
func writeNamespace(dir string, ns uint64) error {
	path := filepath.Join(dir, namespaceFile)
	if err := os.WriteFile(path+".tmp", fmt.Appendf(nil, "%d\n", ns), 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

func (s *diskStore) path(id proto.BlockID) string {
	return filepath.Join(s.dir, fmt.Sprintf("blk_%d", id))
}

func (s *diskStore) Put(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[id]; !exists && len(s.index) >= s.capacity {
		return fmt.Errorf("%w: %d blocks", ErrStoreFull, len(s.index))
	}
	// Write-then-rename so a crash never leaves a torn block visible.
	tmp := s.path(id) + ".tmp"
	if err := writeBlockFile(tmp, Checksum(data), data); err != nil {
		return fmt.Errorf("datanode: write block %d: %w", id, err)
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		return fmt.Errorf("datanode: commit block %d: %w", id, err)
	}
	s.index[id] = struct{}{}
	s.free.put(data) // the file holds the block now
	return nil
}

// writeBlockFile writes a block file — the 4-byte big-endian CRC header,
// then the body — as two writes, so the block is never copied just to
// sit behind its header.
func writeBlockFile(path string, sum uint32, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], sum)
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *diskStore) Get(id proto.BlockID) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("datanode: read block %d: %w", id, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("datanode: read block %d: %w", id, err)
	}
	if st.Size() < 4 {
		return nil, fmt.Errorf("%w: block %d truncated", ErrCorrupt, id)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("datanode: read block %d: %w", id, err)
	}
	data := s.free.get(int(st.Size()) - 4)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("datanode: read block %d: %w", id, err)
	}
	if Checksum(data) != binary.BigEndian.Uint32(hdr[:]) {
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, id)
	}
	return data, nil
}

// corrupt rewrites the block body while keeping the original checksum
// header (fault injection for tests).
func (s *diskStore) corrupt(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	buf, err := os.ReadFile(s.path(id))
	if err != nil || len(buf) < 4 {
		return fmt.Errorf("datanode: corrupt block %d: unreadable", id)
	}
	out := append(buf[:4:4], data...)
	return os.WriteFile(s.path(id), out, 0o644)
}

func (s *diskStore) Delete(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return false
	}
	delete(s.index, id)
	//lint:ignore errcheck best effort: an orphaned file is rewritten on the next Put
	_ = os.Remove(s.path(id))
	return true
}

func (s *diskStore) Has(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

func (s *diskStore) List() []proto.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.BlockID, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	return out
}

func (s *diskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

var (
	_ BlockStore = (*memStore)(nil)
	_ BlockStore = (*diskStore)(nil)
)
