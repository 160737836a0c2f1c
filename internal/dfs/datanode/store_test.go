package datanode

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"aurora/internal/dfs/proto"
)

// storeUnderTest builds each implementation for shared conformance
// tests.
func stores(t *testing.T, capacity int) map[string]BlockStore {
	t.Helper()
	disk, err := newDiskStore(t.TempDir(), capacity, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	return map[string]BlockStore{
		"mem":  newMemStore(capacity, &blockBufs{}),
		"disk": disk,
	}
}

func TestStorePutGetDelete(t *testing.T) {
	for name, s := range stores(t, 4) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello blocks")
			// Put takes the slice it is given; the test keeps its own.
			if err := s.Put(1, bytes.Clone(data)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := s.Get(1)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get = %q, want %q", got, data)
			}
			// Returned slice is private: mutating it must not corrupt.
			got[0] = 'X'
			again, err := s.Get(1)
			if err != nil {
				t.Fatalf("Get after mutation: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Error("mutating Get result leaked into the store")
			}
			if !s.Has(1) || s.Has(2) {
				t.Error("Has wrong")
			}
			if !s.Delete(1) {
				t.Error("Delete = false, want true")
			}
			if s.Delete(1) {
				t.Error("double Delete = true, want false")
			}
			if _, err := s.Get(1); !errors.Is(err, ErrBlockNotFound) {
				t.Errorf("Get deleted err = %v, want ErrBlockNotFound", err)
			}
		})
	}
}

func TestStoreCapacity(t *testing.T) {
	for name, s := range stores(t, 2) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put(1, []byte("a")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Put(2, []byte("b")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Put(3, []byte("c")); !errors.Is(err, ErrStoreFull) {
				t.Errorf("over-capacity Put err = %v, want ErrStoreFull", err)
			}
			// Overwrites of existing blocks are allowed at capacity.
			if err := s.Put(2, []byte("b2")); err != nil {
				t.Errorf("overwrite at capacity: %v", err)
			}
			if got := s.Len(); got != 2 {
				t.Errorf("Len = %d, want 2", got)
			}
		})
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	for name, s := range stores(t, 4) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put(7, []byte("precious data")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			c, ok := s.(interface {
				corrupt(proto.BlockID, []byte) error
			})
			if !ok {
				t.Fatal("store lacks corruption hook")
			}
			if err := c.corrupt(7, []byte("tampered bytes")); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
			if _, err := s.Get(7); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get corrupt err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestStoreList(t *testing.T) {
	for name, s := range stores(t, 8) {
		t.Run(name, func(t *testing.T) {
			want := []proto.BlockID{3, 5, 9}
			for _, id := range want {
				if err := s.Put(id, []byte{byte(id)}); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			got := s.List()
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("List = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("List = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := newDiskStore(dir, 8, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	if err := s.Put(11, []byte("persisted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(12, []byte("also persisted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A fresh store over the same directory sees the blocks.
	s2, err := newDiskStore(dir, 8, &blockBufs{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Len(); got != 2 {
		t.Fatalf("Len after reopen = %d, want 2", got)
	}
	data, err := s2.Get(11)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if string(data) != "persisted" {
		t.Errorf("Get = %q", data)
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blk_xyz"), []byte("hi"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := newDiskStore(dir, 8, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	if got := s.Len(); got != 0 {
		t.Errorf("Len = %d, want 0 (foreign files ignored)", got)
	}
}

func TestDiskStoreTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := newDiskStore(dir, 8, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	if err := s.Put(5, []byte("data")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Truncate below the checksum header.
	if err := os.WriteFile(filepath.Join(dir, "blk_5"), []byte{1, 2}, 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := s.Get(5); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get truncated err = %v, want ErrCorrupt", err)
	}
}

// Property: both stores round-trip arbitrary payloads identically.
func TestStoreRoundTripProperty(t *testing.T) {
	disk, err := newDiskStore(t.TempDir(), 1024, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	mem := newMemStore(1024, &blockBufs{})
	n := proto.BlockID(0)
	f := func(data []byte) bool {
		n++
		for _, s := range []BlockStore{mem, disk} {
			if err := s.Put(n, bytes.Clone(data)); err != nil {
				return false
			}
			got, err := s.Get(n)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChecksumStability(t *testing.T) {
	if Checksum([]byte("abc")) == Checksum([]byte("abd")) {
		t.Error("checksum collision on trivially different inputs")
	}
	if Checksum(nil) != Checksum([]byte{}) {
		t.Error("nil and empty checksums differ")
	}
}
