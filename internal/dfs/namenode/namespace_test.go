package namenode

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// TestNamespaceOrderChurn drives seeded creates, deletes and block
// appends over a small pool of overlapping names — shared prefixes,
// prefix-of-another paths, paths deleted and created again — against a
// sorted-set model. After every step list_files must equal the model in
// path order, and the path-ordered index must hold exactly the map's
// entries. The namespace then survives an fsimage round trip unchanged.
func TestNamespaceOrderChurn(t *testing.T) {
	// The fake datanodes never heartbeat: park the reconcile loop, or a
	// slow run declares them dead and add_block finds no host.
	nn, err := Start(Config{
		ExpectedNodes:      2,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		ReconcileInterval:  time.Hour,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	for i, addr := range []string{"a:1", "b:1"} {
		// Room for every block the churn appends, so add_block never
		// fails for capacity.
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{
			Type: proto.MsgRegister, DataAddr: addr, Rack: i, Capacity: 1 << 16,
		}, nil, time.Second); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	var pool []string
	for _, dir := range []string{"/a", "/a/b", "/a b", "/ab", "/b"} {
		pool = append(pool, dir)
		for i := 0; i < 40; i++ {
			pool = append(pool, fmt.Sprintf("%s/f%d", dir, i))
		}
	}
	// model maps each live path to its block lengths.
	model := make(map[string][]int)
	rng := rand.New(rand.NewPCG(32, 32))
	const steps = 4000
	for step := 0; step < steps; step++ {
		path := pool[rng.IntN(len(pool))]
		lengths, exists := model[path]
		switch r := rng.IntN(10); {
		case r < 5:
			_, err := nn.handleCreate(&proto.Message{Path: path})
			if exists != (err != nil) {
				t.Fatalf("step %d: create %s with exists=%v: err = %v", step, path, exists, err)
			}
			if !exists {
				model[path] = nil
			}
		case r < 8:
			_, err := nn.handleDelete(&proto.Message{Path: path})
			if exists != (err == nil) {
				t.Fatalf("step %d: delete %s with exists=%v: err = %v", step, path, exists, err)
			}
			delete(model, path)
		default:
			n := 1 + rng.IntN(4096)
			_, err := nn.handleAddBlock(&proto.Message{Path: path, Length: n})
			if exists != (err == nil) {
				t.Fatalf("step %d: add_block %s with exists=%v: err = %v", step, path, exists, err)
			}
			if exists {
				model[path] = append(lengths, n)
			}
		}
		checkListMatchesModel(t, nn, model, fmt.Sprintf("step %d", step))
		checkOrderIndex(t, nn, fmt.Sprintf("step %d", step))
	}
	if len(model) == 0 {
		t.Fatal("churn ended with an empty namespace; the round trip below would test nothing")
	}

	img := filepath.Join(t.TempDir(), "img.json")
	if err := nn.SaveFsImage(img); err != nil {
		t.Fatalf("SaveFsImage: %v", err)
	}
	nn2, err := Start(Config{ExpectedNodes: 1, Racks: 2, FsImagePath: img})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(func() { _ = nn2.Close() })
	checkListMatchesModel(t, nn2, model, "after restart")
	checkOrderIndex(t, nn2, "after restart")
}

// checkListMatchesModel compares a list_files reply, over the wire,
// with the model's paths in ascending order and their block counts and
// lengths.
func checkListMatchesModel(t *testing.T, nn *NameNode, model map[string][]int, when string) {
	t.Helper()
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgListFiles}, nil, time.Second)
	if err != nil {
		t.Fatalf("%s: list: %v", when, err)
	}
	want := make([]string, 0, len(model))
	for p := range model {
		want = append(want, p)
	}
	sort.Strings(want)
	if len(resp.Files) != len(want) {
		t.Fatalf("%s: list has %d files, model %d", when, len(resp.Files), len(want))
	}
	for i, f := range resp.Files {
		if f.Path != want[i] {
			t.Fatalf("%s: list[%d] = %s, want %s", when, i, f.Path, want[i])
		}
		var length int64
		for _, n := range model[f.Path] {
			length += int64(n)
		}
		if f.Blocks != len(model[f.Path]) || f.Length != length {
			t.Fatalf("%s: %s has %d blocks, %d bytes; want %d, %d",
				when, f.Path, f.Blocks, f.Length, len(model[f.Path]), length)
		}
	}
}

// checkOrderIndex asserts the path-ordered index is the map's entries,
// strictly ascending.
func checkOrderIndex(t *testing.T, nn *NameNode, when string) {
	t.Helper()
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if len(nn.order) != len(nn.files) {
		t.Fatalf("%s: index has %d files, map %d", when, len(nn.order), len(nn.files))
	}
	for i, f := range nn.order {
		if nn.files[f.path] != f {
			t.Fatalf("%s: index entry %s is not the map's", when, f.path)
		}
		if i > 0 && nn.order[i-1].path >= f.path {
			t.Fatalf("%s: index out of order at %d: %s then %s", when, i, nn.order[i-1].path, f.path)
		}
	}
}
