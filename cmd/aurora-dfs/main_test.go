package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aurora"
	"aurora/internal/dfs"
)

// startTestCluster brings up an in-process namenode plus datanodes so
// the CLI client subcommands can be exercised end to end.
func startTestCluster(t *testing.T, nodes int) *aurora.NameNode {
	t.Helper()
	c, err := dfs.Start(dfs.Spec{
		Nodes: nodes,
		NameNode: aurora.NameNodeConfig{
			Racks:             2,
			BlockSize:         1 << 12,
			ReconcileInterval: 25 * time.Millisecond,
			Placer:            aurora.AuroraPlacer{},
		},
		DataNode: aurora.DataNodeConfig{CapacityBlocks: 128, HeartbeatInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dfs.Start: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.NameNode
}

func TestCLIPutGetLsStatRm(t *testing.T) {
	nn := startTestCluster(t, 4)
	dir := t.TempDir()
	local := filepath.Join(dir, "in.bin")
	data := bytes.Repeat([]byte("cli roundtrip "), 700) // ~10 KB, 3 blocks
	if err := os.WriteFile(local, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	nnFlag := "-namenode=" + nn.Addr()
	bs := "-block-size=4096"
	if err := runPut([]string{nnFlag, bs, "-path", "/cli/file", local}); err != nil {
		t.Fatalf("put: %v", err)
	}
	out := filepath.Join(dir, "out.bin")
	if err := runGet([]string{nnFlag, bs, "-path", "/cli/file", out}); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch via CLI")
	}
	if err := runLs([]string{nnFlag}); err != nil {
		t.Fatalf("ls: %v", err)
	}
	if err := runStat([]string{nnFlag, "-path", "/cli/file"}); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := runSetRep([]string{nnFlag, "-path", "/cli/file", "-k", "4"}); err != nil {
		t.Fatalf("setrep: %v", err)
	}
	if err := runInfo([]string{nnFlag}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := runFsck([]string{nnFlag}); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if err := runRm([]string{nnFlag, "-path", "/cli/file"}); err != nil {
		t.Fatalf("rm: %v", err)
	}
	if err := runGet([]string{nnFlag, "-path", "/cli/file", out}); err == nil {
		t.Error("get of deleted file succeeded")
	}
}

func TestCLIDecommission(t *testing.T) {
	nn := startTestCluster(t, 5)
	dir := t.TempDir()
	local := filepath.Join(dir, "in.bin")
	if err := os.WriteFile(local, bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	nnFlag := "-namenode=" + nn.Addr()
	if err := runPut([]string{nnFlag, "-block-size=4096", "-path", "/d", local}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := runDecommission([]string{nnFlag, "-node", "0"}); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	if err := nn.WaitDecommissioned(0, 15*time.Second); err != nil {
		t.Fatalf("WaitDecommissioned: %v", err)
	}
	if err := runDecommission([]string{nnFlag}); err == nil {
		t.Error("decommission without -node accepted")
	}
}

func TestCLIArgumentErrors(t *testing.T) {
	if err := runPut([]string{"-path", "/x", "nofile"}); err == nil {
		t.Error("put without -namenode accepted")
	}
	if err := runGet([]string{"-namenode", "127.0.0.1:1"}); err == nil {
		t.Error("get without -path accepted")
	}
	if err := runSetRep([]string{"-namenode", "127.0.0.1:1"}); err == nil {
		t.Error("setrep without -path accepted")
	}
}
