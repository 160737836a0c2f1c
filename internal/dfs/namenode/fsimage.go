package namenode

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/topology"
)

// The fsimage is the namenode's persistent metadata checkpoint, the
// equivalent of HDFS's fsimage: node registry, file table and the
// desired placement. Confirmed replica locations are deliberately NOT
// persisted — they rebuild from block reports within a heartbeat
// interval of restart, exactly as in HDFS.

// ErrBadFsImage reports a corrupt or incompatible checkpoint.
var ErrBadFsImage = errors.New("namenode: bad fsimage")

// fsImageVersion guards against loading checkpoints from incompatible
// builds. Version 2 nests each block in its file; version 3 adds the
// namespace ID.
const fsImageVersion = 3

type fsImage struct {
	Version   int           `json:"version"`
	Namespace uint64        `json:"namespace"`
	Racks     int           `json:"racks"`
	NextBlock proto.BlockID `json:"nextBlock"`
	Nodes     []fsImageNode `json:"nodes"`
	Files     []fsImageFile `json:"files"`
}

type fsImageNode struct {
	ID       proto.NodeID `json:"id"`
	Addr     string       `json:"addr"`
	Rack     int          `json:"rack"`
	Capacity int          `json:"capacity"`
	Draining bool         `json:"draining,omitempty"`
}

// fsImageFile is one file with its blocks in order. A block's replica
// and rack floors are the file's replication and minRacks, so the image
// states them once, here.
type fsImageFile struct {
	Path        string         `json:"path"`
	Replication int            `json:"replication"`
	MinRacks    int            `json:"minRacks"`
	Complete    bool           `json:"complete"`
	Blocks      []fsImageBlock `json:"blocks"`
}

type fsImageBlock struct {
	ID         proto.BlockID  `json:"id"`
	Length     int            `json:"length"`
	Popularity float64        `json:"popularity"`
	Desired    []proto.NodeID `json:"desired"`
}

// SaveFsImage writes the metadata checkpoint to path atomically
// (write-then-rename). A successful save clears the dirty flag —
// mutations racing with the write re-mark it, so nothing acknowledged
// is ever lost to coalescing — and bumps the save counter.
func (nn *NameNode) SaveFsImage(path string) error {
	nn.mu.Lock()
	img, err := nn.buildFsImageLocked()
	if err == nil {
		// The image reflects every mutation up to this point; clear the
		// flag now so later mutations re-mark it even while the file
		// write below is still in flight.
		nn.dirty = false
	}
	nn.mu.Unlock()
	if err != nil {
		return err
	}
	err = writeFsImage(path, img)
	nn.mu.Lock()
	if err != nil {
		nn.dirty = true
	} else {
		nn.fsSaves++
	}
	nn.mu.Unlock()
	return err
}

func writeFsImage(path string, img *fsImage) error {
	raw, err := json.MarshalIndent(img, "", " ")
	if err != nil {
		return fmt.Errorf("namenode: marshal fsimage: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("namenode: write fsimage: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("namenode: commit fsimage: %w", err)
	}
	return nil
}

func (nn *NameNode) buildFsImageLocked() (*fsImage, error) {
	if !nn.ready {
		return nil, ErrNotReady
	}
	img := &fsImage{
		Version:   fsImageVersion,
		Namespace: nn.namespace,
		Racks:     nn.cfg.Racks,
		NextBlock: nn.nextBlock,
	}
	for _, n := range nn.nodes {
		img.Nodes = append(img.Nodes, fsImageNode{
			ID:       n.id,
			Addr:     n.addr,
			Rack:     n.rack,
			Capacity: n.capacity,
			Draining: n.draining && !n.decommissioned,
		})
	}
	for _, f := range nn.order {
		ff := fsImageFile{
			Path:        f.path,
			Replication: f.replication,
			MinRacks:    f.minRacks,
			Complete:    f.complete,
			Blocks:      make([]fsImageBlock, len(f.blocks)),
		}
		for i, b := range f.blocks {
			spec, err := nn.placement.Spec(core.BlockID(b))
			if err != nil {
				return nil, err
			}
			fb := &ff.Blocks[i]
			*fb = fsImageBlock{ID: b, Length: f.lengths[i], Popularity: spec.Popularity}
			for _, m := range nn.placement.Replicas(core.BlockID(b)) {
				fb.Desired = append(fb.Desired, proto.NodeID(m))
			}
		}
		img.Files = append(img.Files, ff)
	}
	return img, nil
}

// loadFsImage restores a checkpoint into a freshly-started namenode:
// the node registry and topology are rebuilt (nodes start dead and
// revive on their next heartbeat), files and the desired placement are
// restored, and the cluster is immediately ready. Confirmations rebuild
// from block reports. With no checkpoint at path it leaves the namenode
// to form a new namespace.
func (nn *NameNode) loadFsImage(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("namenode: read fsimage: %w", err)
	}
	var img fsImage
	if err := json.Unmarshal(raw, &img); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFsImage, err)
	}
	if img.Version != fsImageVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadFsImage, img.Version, fsImageVersion)
	}
	if len(img.Nodes) == 0 || img.Namespace == 0 {
		return fmt.Errorf("%w: no nodes or no namespace ID", ErrBadFsImage)
	}

	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.cfg.Racks = img.Racks
	nn.cfg.ExpectedNodes = len(img.Nodes)
	for i, n := range img.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("%w: non-dense node ids", ErrBadFsImage)
		}
		if n.Rack < 0 || n.Rack >= img.Racks {
			return fmt.Errorf("%w: node %d on rack %d of %d", ErrBadFsImage, n.ID, n.Rack, img.Racks)
		}
		nn.nodes = append(nn.nodes, &nodeState{
			id:       n.ID,
			addr:     n.Addr,
			rack:     n.Rack,
			capacity: n.Capacity,
			lastSeen: nn.clock(),
			// Nodes revive on their first heartbeat; starting alive
			// gives them one DeadTimeout of grace.
			alive:    true,
			draining: n.Draining,
		})
	}
	if err := nn.buildClusterLocked(); err != nil {
		return err
	}
	nn.namespace = img.Namespace
	nn.nextBlock = img.NextBlock
	for _, ff := range img.Files {
		// A second entry for a path would orphan the first one's blocks
		// and list the path twice.
		if _, dup := nn.files[ff.Path]; dup {
			return fmt.Errorf("%w: duplicate file %s", ErrBadFsImage, ff.Path)
		}
		f := &fileMeta{
			path:        ff.Path,
			replication: ff.Replication,
			minRacks:    ff.MinRacks,
			complete:    ff.Complete,
		}
		for _, fb := range ff.Blocks {
			// An ID at or past nextBlock would be allocated again by a
			// later add_block.
			if fb.ID >= nn.nextBlock {
				return fmt.Errorf("%w: file %s names block %d, which the namespace never allocated", ErrBadFsImage, ff.Path, fb.ID)
			}
			if err := nn.placement.AddBlock(core.BlockSpec{
				ID:          core.BlockID(fb.ID),
				Popularity:  fb.Popularity,
				MinReplicas: ff.Replication,
				MinRacks:    ff.MinRacks,
			}); err != nil {
				return fmt.Errorf("%w: block %d: %w", ErrBadFsImage, fb.ID, err)
			}
			for _, n := range fb.Desired {
				if err := nn.placement.AddReplica(core.BlockID(fb.ID), topology.MachineID(n)); err != nil {
					return fmt.Errorf("%w: replica of %d on %d: %w", ErrBadFsImage, fb.ID, n, err)
				}
			}
			f.blocks = append(f.blocks, fb.ID)
			f.lengths = append(f.lengths, fb.Length)
		}
		nn.insertFileLocked(f)
	}
	nn.ready = true
	return nil
}
