package namenode

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

func TestFsImageRoundTripUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.json")
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 9}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	blk := resp.Block
	a.received(blk)
	b.received(blk)
	if err := nn.SaveFsImage(path); err != nil {
		t.Fatalf("SaveFsImage: %v", err)
	}

	// Restore into a fresh namenode.
	nn2, err := Start(Config{
		ExpectedNodes:     1, // overwritten by the checkpoint
		Racks:             2,
		ReconcileInterval: 10 * time.Millisecond,
		FsImagePath:       path,
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(func() { _ = nn2.Close() })
	if !nn2.Ready() {
		t.Fatal("restored namenode not ready")
	}
	p, err := nn2.PlacementClone()
	if err != nil {
		t.Fatalf("PlacementClone: %v", err)
	}
	if p.NumBlocks() != 1 || p.ReplicaCount(1) != 2 {
		t.Errorf("restored placement wrong: %d blocks, %d replicas", p.NumBlocks(), p.ReplicaCount(1))
	}
	// File metadata present.
	r, _, err := proto.Call(nn2.Addr(), &proto.Message{Type: proto.MsgStatFile, Path: "/f"}, nil, time.Second)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if r.Files[0].Blocks != 1 || r.Files[0].Length != 9 {
		t.Errorf("restored file = %+v", r.Files[0])
	}
}

// TestFsImageSaveCoalescing is the regression gate for checkpoint
// coalescing: a storm of heartbeats and block reports — the DFS steady
// state — must produce no fsimage writes at all, because confirmed
// replica sets are rebuilt from block reports on restart and are not
// persisted metadata. A real metadata mutation must still reach disk
// within a couple of checkpoint intervals, and nothing acknowledged may
// be lost across a restart from the image.
func TestFsImageSaveCoalescing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.json")
	nn, err := Start(Config{
		ExpectedNodes:      2,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		DeadTimeout:        2 * time.Second,
		ReconcileInterval:  10 * time.Millisecond,
		CheckpointInterval: 20 * time.Millisecond,
		FsImagePath:        path,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = nn.Close()
		}
	}()
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 9}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	a.received(resp.Block)
	b.received(resp.Block)

	// Let the registration and create mutations reach disk and the
	// dirty flag settle.
	deadline := time.Now().Add(5 * time.Second)
	for nn.Dirty() || nn.FsImageSaves() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("initial checkpoint never settled: dirty=%v saves=%d", nn.Dirty(), nn.FsImageSaves())
		}
		time.Sleep(5 * time.Millisecond)
	}
	saves0 := nn.FsImageSaves()

	// Steady state: 100 full block reports spread across ~12 checkpoint
	// intervals. None of that is persisted metadata, so not a single
	// additional save may happen.
	const reports = 50
	for i := 0; i < reports; i++ {
		a.heartbeat(resp.Block)
		b.heartbeat(resp.Block)
		time.Sleep(5 * time.Millisecond)
	}
	if got := nn.FsImageSaves(); got != saves0 {
		t.Errorf("steady-state saves = %d, want %d: %d block reports must coalesce to zero writes", got, saves0, 2*reports)
	}

	// A real metadata mutation must reach disk within a couple of
	// checkpoint intervals.
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/g", Replication: 2}, nil, time.Second); err != nil {
		t.Fatalf("create /g: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for nn.FsImageSaves() == saves0 {
		if time.Now().After(deadline) {
			t.Fatal("metadata mutation never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := nn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closed = true

	// Coalescing must not lose acknowledged state: both files survive a
	// restart from the image.
	nn2, err := Start(Config{
		ExpectedNodes:     1, // overwritten by the checkpoint
		Racks:             2,
		ReconcileInterval: 10 * time.Millisecond,
		FsImagePath:       path,
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(func() { _ = nn2.Close() })
	for _, p := range []string{"/f", "/g"} {
		if _, _, err := proto.Call(nn2.Addr(), &proto.Message{Type: proto.MsgStatFile, Path: p}, nil, time.Second); err != nil {
			t.Errorf("stat %s after restart: %v", p, err)
		}
	}
}

// TestFsImageRejectsDuplicatePath: two image entries for one path used
// to load as "last one wins", leaving the first entry's blocks in the
// desired placement with no file to own or reap them. The loader must
// refuse the image instead.
func TestFsImageRejectsDuplicatePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.json")
	nn := startNN(t, 2, 2)
	registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	for _, p := range []string{"/f", "/g"} {
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: p}, nil, time.Second); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: p, Length: 9}, nil, time.Second); err != nil {
			t.Fatalf("add block %s: %v", p, err)
		}
	}
	if err := nn.SaveFsImage(path); err != nil {
		t.Fatalf("SaveFsImage: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var img fsImage
	if err := json.Unmarshal(raw, &img); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(img.Files) != 2 {
		t.Fatalf("image has %d files, want 2", len(img.Files))
	}
	img.Files[1].Path = img.Files[0].Path
	if err := writeFsImage(path, &img); err != nil {
		t.Fatalf("writeFsImage: %v", err)
	}
	nn2, err := Start(Config{ExpectedNodes: 1, Racks: 2, FsImagePath: path})
	if err == nil {
		_ = nn2.Close()
	}
	if !errors.Is(err, ErrBadFsImage) {
		t.Errorf("duplicate path err = %v, want ErrBadFsImage", err)
	}
}

// An image whose nextBlock is not past every block it names used to
// load, and then every add_block failed with ErrDuplicateBlock: the
// counter handed out an ID a file already owned. The loader must refuse
// such an image.
func TestFsImageBlockAtNextBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.json")
	nn := startNN(t, 2, 2)
	registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/f"}, nil, time.Second); err != nil {
		t.Fatalf("create: %v", err)
	}
	resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/f", Length: 9}, nil, time.Second)
	if err != nil {
		t.Fatalf("add block: %v", err)
	}
	if err := nn.SaveFsImage(path); err != nil {
		t.Fatalf("SaveFsImage: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var img fsImage
	if err := json.Unmarshal(raw, &img); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	img.NextBlock = resp.Block
	if err := writeFsImage(path, &img); err != nil {
		t.Fatalf("writeFsImage: %v", err)
	}
	nn2, err := Start(Config{ExpectedNodes: 1, Racks: 2, FsImagePath: path})
	if err == nil {
		defer nn2.Close()
		_, _, err := proto.Call(nn2.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: "/g"}, nil, time.Second)
		if err == nil {
			_, _, err = proto.Call(nn2.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: "/g", Length: 9}, nil, time.Second)
		}
		t.Fatalf("an image naming block %d at nextBlock loaded (then create and add_block: %v), want ErrBadFsImage", resp.Block, err)
	}
	if !errors.Is(err, ErrBadFsImage) {
		t.Fatalf("err = %v, want ErrBadFsImage", err)
	}
}

func TestSaveFsImageNotReady(t *testing.T) {
	nn := startNN(t, 2, 2) // never becomes ready
	if err := nn.SaveFsImage(filepath.Join(t.TempDir(), "x.json")); !errors.Is(err, ErrNotReady) {
		t.Errorf("err = %v, want ErrNotReady", err)
	}
}

func TestLoadFsImageErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Start(Config{ExpectedNodes: 1, FsImagePath: garbage}); !errors.Is(err, ErrBadFsImage) {
		t.Errorf("garbage err = %v, want ErrBadFsImage", err)
	}
	wrongVersion := filepath.Join(dir, "v99.json")
	if err := os.WriteFile(wrongVersion, []byte(`{"version":99,"nodes":[{"id":0,"addr":"a","rack":0,"capacity":1}]}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Start(Config{ExpectedNodes: 1, FsImagePath: wrongVersion}); !errors.Is(err, ErrBadFsImage) {
		t.Errorf("version err = %v, want ErrBadFsImage", err)
	}
	// The images below are current-version, so each fails for the defect
	// it names.
	version := fmt.Sprintf(`"version":%d`, fsImageVersion)
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{`+version+`}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Start(Config{ExpectedNodes: 1, FsImagePath: empty}); !errors.Is(err, ErrBadFsImage) {
		t.Errorf("no-nodes err = %v, want ErrBadFsImage", err)
	}
	for name, img := range map[string]string{
		"no namespace ID":        `{` + version + `,"racks":1,"nodes":[{"id":0,"addr":"a","rack":0,"capacity":1}]}`,
		"node outside the racks": `{` + version + `,"namespace":1,"nodes":[{"id":0,"addr":"a","rack":0,"capacity":1}]}`,
		"block named by two files": `{` + version + `,"namespace":1,"racks":1,"nextBlock":10,"nodes":[{"id":0,"addr":"a","rack":0,"capacity":4}],"files":` +
			`[{"path":"/f","replication":1,"minRacks":1,"blocks":[{"id":3,"length":1}]},` +
			`{"path":"/g","replication":1,"minRacks":1,"blocks":[{"id":3,"length":1}]}]}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(img), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := Start(Config{ExpectedNodes: 1, FsImagePath: bad}); !errors.Is(err, ErrBadFsImage) {
			t.Errorf("%s err = %v, want ErrBadFsImage", name, err)
		}
	}
	// Missing file is fine: a fresh cluster forms and checkpoints there.
	fresh := filepath.Join(dir, "fresh.json")
	nn, err := Start(Config{ExpectedNodes: 1, Racks: 1, DefaultMinRacks: 1, FsImagePath: fresh})
	if err != nil {
		t.Fatalf("fresh start: %v", err)
	}
	_ = nn.Close()
}

// A restart from an older checkpoint rolls the block counter back while
// the datanodes still hold the blocks allocated after it. A new block
// must not reuse one of those IDs, or their stale replicas would count
// as confirmed holders of the new block. The stale copies are surplus
// like any copy without a spec: the walk deletes them, and once the
// deletes are reported the namespace has converged.
func TestRestartSkipsReportedBlockIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.json")
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	b := registerFake(t, nn, 1, "b:1")
	write := func(nn *NameNode, file string) proto.BlockID {
		t.Helper()
		if _, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgCreateFile, Path: file, Replication: 2}, nil, time.Second); err != nil {
			t.Fatalf("create %s: %v", file, err)
		}
		resp, _, err := proto.Call(nn.Addr(), &proto.Message{Type: proto.MsgAddBlock, Path: file, Length: 1}, nil, time.Second)
		if err != nil {
			t.Fatalf("add block to %s: %v", file, err)
		}
		return resp.Block
	}
	first := write(nn, "/old")
	if err := nn.SaveFsImage(path); err != nil {
		t.Fatalf("SaveFsImage: %v", err)
	}
	stale := write(nn, "/lost") // allocated after the checkpoint
	a.received(stale)
	b.received(stale)

	nn2, err := Start(Config{ExpectedNodes: 1, Racks: 2, ReconcileInterval: time.Hour, FsImagePath: path})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	t.Cleanup(func() { _ = nn2.Close() })
	if nn2.namespace != nn.namespace {
		t.Fatalf("restored namespace ID %d, want the image's %d", nn2.namespace, nn.namespace)
	}
	dns := []*fakeDN{
		{t: t, nn: nn2.Addr(), id: a.id, addr: a.addr, ns: a.ns},
		{t: t, nn: nn2.Addr(), id: b.id, addr: b.addr, ns: b.ns},
	}
	for _, dn := range dns {
		dn.heartbeat(first, stale)
	}
	fresh := write(nn2, "/new")
	if fresh <= stale {
		t.Errorf("new block got ID %d, at or below the reported ID %d", fresh, stale)
	}
	nn2.mu.Lock()
	holders := len(nn2.confirmed[fresh])
	nn2.mu.Unlock()
	if holders != 0 {
		t.Errorf("new block %d counts %d stale replica(s) as confirmed holders", fresh, holders)
	}
	for _, dn := range dns {
		dn.received(fresh)
	}
	for tick := 0; tick < 3; tick++ {
		nn2.ReconcileOnce()
	}
	if h := nn2.Health(); h.TombstonedBlocks != 1 {
		t.Errorf("fsck counts %d tombstoned blocks, want the stale block %d: %+v", h.TombstonedBlocks, stale, h)
	}
	for _, dn := range dns {
		cmds := dn.heartbeat(first, stale, fresh)
		if !slices.Contains(cmds, proto.Command{Kind: proto.CmdDelete, Block: stale}) {
			t.Fatalf("node %d was not sent a delete of the stale block %d: %v", dn.id, stale, cmds)
		}
		dn.deleted(stale, first, fresh)
	}
	nn2.ReconcileOnce()
	nn2.mu.Lock()
	_, tracked := nn2.confirmed[stale]
	nn2.mu.Unlock()
	if tracked {
		t.Errorf("stale block %d still has a confirmed entry after its deletes were reported", stale)
	}
	if !nn2.Converged() {
		t.Error("not converged after the stale copies were deleted")
	}
}

// countCommands returns how many commands nn has queued or issued.
func countCommands(nn *NameNode) int {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	n := 0
	for _, cmds := range nn.pendingCmds {
		n += len(cmds)
	}
	for _, issued := range nn.commandsIssued {
		n += int(issued)
	}
	return n
}

// A namenode started without an image over datanodes that hold data — a
// lost image, a mistyped -fsimage path — must delete none of it. The
// datanodes are bound to the old namespace: their registration is
// refused, and so is every report and arrival, even one under a node ID
// the new namespace gave another node (a datanode process that outlived
// the old namenode). A report that carries no namespace ID is refused
// too: only a registration may come unbound.
func TestFreshNameNodeKeepsReportedBlocks(t *testing.T) {
	nn := startNN(t, 2, 2)
	a := registerFake(t, nn, 0, "a:1")
	registerFake(t, nn, 1, "b:1")
	old := nn.namespace + 1
	call := func(m *proto.Message) error {
		_, _, err := proto.Call(nn.Addr(), m, nil, time.Second)
		return err
	}
	if err := call(&proto.Message{Type: proto.MsgRegister, DataAddr: "a:1", Capacity: 100, Namespace: old}); err == nil ||
		!strings.Contains(err.Error(), "namespace mismatch") {
		t.Errorf("registration bound to another namespace: err = %v, want a namespace mismatch", err)
	}
	for _, ns := range []uint64{old, 0} {
		for _, m := range []*proto.Message{
			{Type: proto.MsgHeartbeatDelta, Node: a.id, FullReport: true, Received: []proto.BlockID{3, 7, 9}, Namespace: ns},
			{Type: proto.MsgHeartbeatDelta, Node: a.id, Digest: proto.BlockDigest(3), Received: []proto.BlockID{3}, Namespace: ns},
			{Type: proto.MsgBlockReceived, Node: a.id, Block: 9, Namespace: ns},
		} {
			if err := call(m); err == nil || !strings.Contains(err.Error(), "namespace mismatch") {
				t.Errorf("%s from namespace %d: err = %v, want a namespace mismatch", m.Type, ns, err)
			}
		}
	}
	for tick := 0; tick < 3; tick++ {
		nn.ReconcileOnce()
	}
	nn.mu.Lock()
	confirmed, next := len(nn.confirmed), nn.nextBlock
	nn.mu.Unlock()
	if confirmed != 0 || next != 1 {
		t.Errorf("refused reports left %d confirmed blocks and nextBlock %d, want none and 1", confirmed, next)
	}
	if n := countCommands(nn); n != 0 {
		t.Errorf("%d commands queued or issued after refused reports, want none", n)
	}
}
