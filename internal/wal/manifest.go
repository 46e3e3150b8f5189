package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ManifestName is the manifest's file name inside a durability directory.
const ManifestName = "MANIFEST.json"

// Manifest ties one snapshot to a WAL position: recovery loads Snapshot,
// then replays the log from LastLSN. It is written atomically (temp file +
// rename), so a crash mid-checkpoint leaves the previous manifest intact.
type Manifest struct {
	// Snapshot is the snapshot file name, relative to the manifest's
	// directory.
	Snapshot string `json:"snapshot"`
	// LastLSN is the op count the snapshot covers: every op with LSN <
	// LastLSN is reflected in the snapshot and must not be replayed.
	LastLSN uint64 `json:"last_lsn"`
	// SnapshotCRC/SnapshotBytes validate the snapshot file on load.
	SnapshotCRC   uint32 `json:"snapshot_crc32c"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// Shards records the sharded store's width (1 for a session graph).
	Shards int `json:"shards"`
	// Epoch is the replication term counter: it starts at 0 for a fresh
	// primary and is bumped (and persisted here, before any write is
	// accepted) when a follower is promoted. A node refuses replication
	// streams from a primary whose epoch is below its own — the fencing
	// that keeps a deposed primary from resurrecting overwritten history.
	// Checkpoints preserve it; manifests written before replication
	// existed decode as epoch 0.
	Epoch uint64 `json:"epoch"`
}

// WriteManifest atomically installs m as dir's manifest.
func WriteManifest(dir string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		_ = tmp.Close() // already failing; close error is cleanup noise
		os.Remove(tmpName)
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: manifest: %w", err)
	}
	return syncDir(dir)
}

// LoadManifest reads dir's manifest; ok is false when none exists.
func LoadManifest(dir string) (m Manifest, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, fmt.Errorf("wal: manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: manifest: %w", err)
	}
	return m, true, nil
}

// OpenManifestSnapshot validates a manifest's snapshot file (size +
// CRC32-C against the recorded pair) and opens it for reading: recovery
// through Dir.LoadSnapshot, and a replication primary serving the
// snapshot of a directory some other handle owns.
func OpenManifestSnapshot(dir string, m Manifest) (*os.File, error) {
	path := filepath.Join(dir, m.Snapshot)
	crc, size, err := FileCRC(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", m.Snapshot, err)
	}
	if size != m.SnapshotBytes || crc != m.SnapshotCRC {
		return nil, fmt.Errorf("wal: snapshot %s fails validation: got %d bytes crc %08x, manifest says %d bytes crc %08x",
			m.Snapshot, size, crc, m.SnapshotBytes, m.SnapshotCRC)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	return f, nil
}

// FileCRC computes the CRC32-C and size of a file — the snapshot
// validation pair stored in the manifest.
func FileCRC(path string) (uint32, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = f.Close() }() // read-only; the CRC/read errors are the signal
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return h.Sum32(), n, nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer func() { _ = d.Close() }() // the Sync below carries the durability
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
