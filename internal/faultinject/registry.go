package faultinject

// Registry of every failpoint name the codebase defines. A failpoint only
// exists where an Inject call names it; a typo'd name in a test's Set or
// in a GT_FAILPOINTS spec arms nothing and the chaos gate silently tests
// less than it claims. The gtlint failpointreg check resolves every
// failpoint string literal in the module against this table, and flags
// registry entries that no Inject site references anymore.
//
// To add a failpoint: add the Inject call at the new site, then add the
// name here with a comment saying what failure it simulates.

// registry maps failpoint name -> the site that defines it (the package
// containing its Inject call). Keep it sorted.
var registry = map[string]string{
	"ingest/apply":       "internal/ingest",      // shard-apply failure/panic before an edge lands
	"recovery/bulk-load": "internal/core",        // snapshot section load dies mid-parallel-recovery
	"repl/apply":         "internal/replication", // follower dies between WAL append and store apply
	"repl/frame-recv":    "internal/replication", // transport receive failure mid-frame
	"repl/frame-send":    "internal/replication", // transport send failure mid-frame
	"repl/promote":       "internal/replication", // crash before the promotion manifest persists
	"repl/snapshot":      "internal/replication", // follower dies mid-snapshot bootstrap install
	"wal/append":         "internal/wal",         // record write error before bytes reach the buffer
	"wal/append-partial": "internal/wal",         // torn write: truncated record hits the segment
	"wal/dir-install":    "internal/wal",         // snapshot install dies after the snapshot rename (1st hit) or after the manifest (2nd hit)
	"wal/fsync":          "internal/wal",         // fsync failure during group commit
	"wal/rotate":         "internal/wal",         // segment rotation failure mid-roll
}

// Registered reports whether name is a known failpoint.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns every registered failpoint name, unordered.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	return out
}
