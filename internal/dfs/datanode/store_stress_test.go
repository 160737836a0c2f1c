package datanode

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"aurora/internal/dfs/proto"
)

// stressPayload is the canonical content for a block ID, so any reader
// can verify whatever it gets back regardless of which writer won.
func stressPayload(id proto.BlockID) []byte {
	return []byte(fmt.Sprintf("block-%d-payload", id))
}

// stressStore hammers one store from many goroutines — the assertions
// are (a) the race detector stays quiet and (b) the store is
// internally consistent when the dust settles.
func stressStore(t *testing.T, s BlockStore) {
	const (
		workers   = 8
		perWorker = 200
		blocks    = 24
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := proto.BlockID(i%blocks + 1)
				switch (w + i) % 5 {
				case 0, 1:
					// The store may be at capacity; that error is expected.
					_ = s.Put(id, stressPayload(id))
				case 2:
					if data, err := s.Get(id); err == nil {
						if !bytes.Equal(data, stressPayload(id)) {
							t.Errorf("Get(%d) = %q, want %q", id, data, stressPayload(id))
						}
					}
				case 3:
					s.Delete(id)
				default:
					_ = s.Has(id)
					_ = s.List()
					_ = s.Len()
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: Len agrees with List, and every listed block reads back
	// with its canonical content.
	ids := s.List()
	if got := s.Len(); got != len(ids) {
		t.Errorf("Len() = %d, List() has %d entries", got, len(ids))
	}
	for _, id := range ids {
		data, err := s.Get(id)
		if err != nil {
			t.Errorf("Get(%d) after quiesce: %v", id, err)
			continue
		}
		if !bytes.Equal(data, stressPayload(id)) {
			t.Errorf("Get(%d) = %q, want %q", id, data, stressPayload(id))
		}
	}
}

func TestMemStoreConcurrentStress(t *testing.T) {
	stressStore(t, newMemStore(64, &blockBufs{}))
}

func TestDiskStoreConcurrentStress(t *testing.T) {
	s, err := newDiskStore(t.TempDir(), 64, &blockBufs{})
	if err != nil {
		t.Fatalf("newDiskStore: %v", err)
	}
	stressStore(t, s)
}
