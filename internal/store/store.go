// Package store is a crash-safe, content-addressed, on-disk result
// store: the persistence layer under the classification engine's memo
// cache, the census pipeline's resume path and the job manager's
// results, shared by rcons, rcatlas and rcserve.
//
// Entries live in namespaced kinds ("search", "census-row", "job") and
// are addressed by the SHA-256 of (kind, key) — keys are canonical
// fingerprints or other deterministic identities, so the same
// computation always lands in the same file regardless of which binary
// performed it. Each entry is a versioned JSON envelope carrying the
// kind, the full key and a SHA-256 checksum of the payload, so reads
// verify both integrity and identity (a hash collision or a stray file
// cannot serve the wrong result).
//
// Crash safety: writes go to a temporary file in the entry's directory,
// are fsynced, and are renamed into place — readers never observe a
// partial entry. Open sweeps the store: leftover temp files from a
// killed writer are deleted, and entries that fail to parse, whose
// checksum does not match, or whose recorded identity does not match
// their address are moved into a quarantine directory instead of being
// served or silently deleted (Get does the same if an entry rots after
// Open). A bounded in-memory LRU fronts the disk with hit/miss/eviction
// counters.
//
// Tiering: the store is one tier of a fleet-wide cache. Backend is the
// tier interface — *Store is the local on-disk tier, *Peer reads
// through to another replica's /v1/store HTTP routes, and Chain
// composes them with write-back healing — so several rcserve replicas
// or census shard workers share one content-addressed result pool and
// a miss anywhere degrades to a recompute, never a failure.
//
// Budget: Options.BudgetBytes caps the bytes of entry files on disk.
// The usage is counted at Open, maintained by every Put, and enforced
// by size-aware LRU eviction — least-recently-used entries are deleted,
// deterministically (recency order, ties at Open broken by mtime then
// path). Compact is the offline+online compaction pass: it drops
// quarantine debris, reconciles the index against the directory, and
// re-applies the budget.
//
// Sharing a directory: two Stores may share one directory (writes are
// atomic renames, reads verify), but each maintains only its own view
// of the entry population — Stats.Entries can undercount files another
// writer added until a read adopts them or Compact recounts. Budget
// enforcement therefore assumes a single budgeted writer per directory;
// run extra readers unbudgeted.
//
// Payloads must be JSON (they are embedded verbatim in the envelope);
// Put compacts them, so logically equal payloads are byte-identical on
// disk and re-putting an unchanged result is a no-op that never
// rewrites the file — which keeps store-enabled runs byte-deterministic.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rcons/internal/lru"
	"rcons/internal/obs"
)

// Version identifies the on-disk envelope schema; entries with another
// version are quarantined, not misread.
const Version = 1

const (
	layoutDir     = "v1"
	quarantineSub = "quarantine"
	tmpMarker     = ".tmp"
)

// envelope is the on-disk form of one entry.
type envelope struct {
	Version  int             `json:"version"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"` // "sha256:" + hex of Payload
	Payload  json.RawMessage `json:"payload"`
}

// Options configures a Store.
type Options struct {
	// CacheEntries bounds the in-memory LRU front; 0 means 1024,
	// negative disables the front entirely (every Get reads disk).
	CacheEntries int
	// BudgetBytes caps the cumulative size of entry files under the
	// store's data directory; 0 means unlimited. Open enforces it
	// immediately (evicting least-recently-written entries of an
	// oversized directory) and every Put maintains it by size-aware LRU
	// eviction. A Put never evicts the entry it just wrote, so a single
	// entry larger than the budget is kept rather than thrashed.
	BudgetBytes int64
}

// Stats reports a store's cumulative behavior. All counters are
// monotone for the life of the process except Entries and Bytes, which
// track the current valid entries this Store knows about on disk.
type Stats struct {
	// Entries and Bytes count the valid entries (and their file bytes)
	// in this Store's view of the directory: populated at Open,
	// maintained by Put/eviction/quarantine, extended when a read
	// adopts an entry another writer added, reconciled by Compact.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MemHits are Gets served by the LRU front; DiskHits read and
	// verified a file; Misses found nothing.
	MemHits  int64 `json:"memHits"`
	DiskHits int64 `json:"diskHits"`
	Misses   int64 `json:"misses"`
	// Puts wrote a new or changed entry; PutNoops skipped a write
	// because an identical entry was already on disk.
	Puts     int64 `json:"puts"`
	PutNoops int64 `json:"putNoops"`
	// Evictions counts LRU-front entries dropped for the size bound;
	// DiskEvictions counts entry files deleted to respect BudgetBytes.
	Evictions     int64 `json:"evictions"`
	DiskEvictions int64 `json:"diskEvictions"`
	// Quarantined counts corrupt entries moved aside (at Open or Get).
	Quarantined int64 `json:"quarantined"`
	// Compactions counts completed Compact passes.
	Compactions int64 `json:"compactions"`
}

// Store is a content-addressed result store rooted at one directory.
// It is safe for concurrent use; two Stores may even share a directory
// (writes are atomic renames), though they will not share an LRU front
// and only one of them should enforce a byte budget (see the package
// doc on sharing).
type Store struct {
	dir    string
	budget int64

	mu    sync.Mutex
	front *lru.Cache[string, []byte] // nil when the memory front is disabled
	disk  *diskIndex
	stats Stats

	// writeLocks serialize the read-check-then-write sections per entry
	// address (striped), so concurrent Puts of one key cannot both
	// observe "absent" and double-count Entries, and a Get racing a Put
	// on the same entry sees either the old or the new complete state.
	writeLocks [64]sync.Mutex
}

// writeLock returns the stripe guarding the given address.
func (s *Store) writeLock(a string) *sync.Mutex {
	// a is hex (lowercase); fold the first two characters into 0..63.
	return &s.writeLocks[(hexVal(a[0])<<4|hexVal(a[1]))%64]
}

func hexVal(c byte) int {
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// Open initializes dir (creating it if needed), deletes temp files left
// by writers that died mid-write, and verifies every entry — parse
// failures, checksum mismatches and alien versions are moved to
// dir/quarantine rather than served later. The scan makes Open O(store
// size); the stores this repository writes hold small JSON results, so
// the integrity pass is cheap relative to recomputing even one of them.
// With a budget, Open finishes by evicting least-recently-written
// entries (ties broken by path, so recovery is deterministic) until the
// directory fits — the offline half of compaction.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if opts.BudgetBytes < 0 {
		return nil, fmt.Errorf("store: negative budget %d", opts.BudgetBytes)
	}
	for _, sub := range []string{layoutDir, quarantineSub} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: init %s: %w", dir, err)
		}
	}
	s := &Store{dir: dir, budget: opts.BudgetBytes, disk: newDiskIndex()}
	switch {
	case opts.CacheEntries == 0:
		s.front = lru.New[string, []byte](1024)
	case opts.CacheEntries > 0:
		s.front = lru.New[string, []byte](opts.CacheEntries)
	}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enforceBudgetLocked("")
	s.mu.Unlock()
	return s, nil
}

// sweep is Open's integrity pass over dir/v1: it removes temp debris,
// quarantines entries that fail verification, and seeds the disk index
// in deterministic recency order (mtime, then path).
func (s *Store) sweep() error {
	root := filepath.Join(s.dir, layoutDir)
	type swept struct {
		path  string
		size  int64
		mtime time.Time
	}
	var found []swept
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A concurrently-opened store may have swept a file first.
			if os.IsNotExist(err) {
				return nil
			}
			return fmt.Errorf("store: sweep %s: %w", path, err)
		}
		if d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), tmpMarker) {
			// A writer died between create and rename; the entry it was
			// replacing (if any) is still intact under the final name.
			if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
				return fmt.Errorf("store: remove stale temp %s: %w", path, rerr)
			}
			return nil
		}
		_, raw, ok := readEnvelope(path)
		if !ok {
			s.quarantine(path)
			return nil
		}
		var mtime time.Time
		if info, ierr := d.Info(); ierr == nil {
			mtime = info.ModTime()
		}
		found = append(found, swept{path: path, size: int64(len(raw)), mtime: mtime})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].path < found[j].path
	})
	s.mu.Lock()
	for _, f := range found {
		s.disk.put(f.path, f.size) // oldest first ⇒ newest ends up MRU
	}
	s.stats.Entries = int64(s.disk.len())
	s.stats.Bytes = s.disk.bytes
	s.mu.Unlock()
	return nil
}

// quarantine moves a corrupt entry into dir/quarantine and reports
// whether this call actually moved it. The destination name is the
// entry's base name plus, when that name is already taken, a numeric
// suffix — successive corruptions of one entry are all preserved, never
// silently overwritten. Failures (including the file vanishing under a
// concurrent store) are not errors: quarantine is best-effort
// containment, and the entry is treated as absent either way.
func (s *Store) quarantine(path string) bool {
	base := filepath.Base(path)
	for n := 0; n < 10000; n++ {
		name := base
		if n > 0 {
			name = fmt.Sprintf("%s.%d", base, n)
		}
		dest := filepath.Join(s.dir, quarantineSub, name)
		if _, err := os.Lstat(dest); err == nil {
			continue // taken by an earlier corpse; keep both
		}
		if os.Rename(path, dest) == nil {
			s.mu.Lock()
			s.stats.Quarantined++
			s.mu.Unlock()
			return true
		}
		if _, err := os.Lstat(path); err != nil {
			return false // source vanished under a concurrent store
		}
	}
	return false
}

// dropTrackedLocked removes path from the disk index after a
// quarantine or eviction. Untracked paths (written by another store
// sharing the directory, never adopted by this one) leave the counters
// alone — Compact reconciles any residual drift.
func (s *Store) dropTrackedLocked(path string) {
	if size, ok := s.disk.remove(path); ok {
		s.stats.Bytes -= size
		s.stats.Entries--
	}
}

// dropIfVanishedLocked drops a tracked path whose file is gone from
// disk. Used when a misplaced entry reveals its true identity: the
// envelope found at the wrong address names the home path it was moved
// away from, whose index entry is now stale.
func (s *Store) dropIfVanishedLocked(path string) {
	if !s.disk.has(path) {
		return
	}
	if _, err := os.Lstat(path); err != nil {
		s.dropTrackedLocked(path)
	}
}

// adoptLocked records path as a valid entry of the given size, as the
// most recently used; newly seen paths extend Entries/Bytes.
func (s *Store) adoptLocked(path string, size int64) {
	delta, inserted := s.disk.put(path, size)
	s.stats.Bytes += delta
	if inserted {
		s.stats.Entries++
	}
}

// enforceBudgetLocked deletes least-recently-used entries until Bytes
// fits the budget. protect (usually the path a Put just wrote) is never
// evicted. Each eviction is one atomic unlink, so a crash mid-pass
// leaves a valid store that the next Open finishes compacting.
func (s *Store) enforceBudgetLocked(protect string) {
	for s.budget > 0 && s.stats.Bytes > s.budget {
		path, size, ok := s.disk.victim()
		if !ok || path == protect {
			return
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return // unwritable directory; better over budget than spinning
		}
		s.disk.remove(path)
		s.stats.Bytes -= size
		s.stats.Entries--
		s.stats.DiskEvictions++
	}
}

// Addr derives the content address of (kind, key) — what the /v1/store
// peer routes use as the {addr} path element. Exported so clients of
// those routes can build URLs without re-implementing the hash.
func Addr(kind, key string) string { return addr(kind, key) }

// addr derives the content address of (kind, key): a SHA-256 over both,
// hex-encoded. The kind is also a directory level and the first address
// byte a fan-out level, keeping directories small.
func addr(kind, key string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) entryPath(kind, key string) (string, error) {
	if !validKind(kind) {
		return "", fmt.Errorf("store: invalid kind %q (want lowercase [a-z0-9-])", kind)
	}
	a := addr(kind, key)
	return filepath.Join(s.dir, layoutDir, kind, a[:2], a+".json"), nil
}

// validKind keeps kinds usable as directory names on every platform.
func validKind(kind string) bool {
	if kind == "" {
		return false
	}
	for i := 0; i < len(kind); i++ {
		c := kind[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// validAddr accepts exactly the addresses addr produces: 64 lowercase
// hex characters.
func validAddr(a string) bool {
	if len(a) != 64 {
		return false
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// encodeEnvelope canonicalizes payload (which must be JSON) and wraps
// it in a versioned, checksummed envelope — the exact bytes Store.Put
// writes and Peer.Put ships, so every tier produces identical files.
func encodeEnvelope(kind, key string, payload []byte) (data []byte, env envelope, err error) {
	if !validKind(kind) {
		return nil, env, fmt.Errorf("store: invalid kind %q (want lowercase [a-z0-9-])", kind)
	}
	var compact json.RawMessage
	if err := json.Unmarshal(payload, &compact); err != nil {
		return nil, env, fmt.Errorf("store: payload for %s/%s is not JSON: %w", kind, key, err)
	}
	buf, err := json.Marshal(compact) // canonical compact bytes
	if err != nil {
		return nil, env, fmt.Errorf("store: compact payload for %s/%s: %w", kind, key, err)
	}
	env = envelope{Version: Version, Kind: kind, Key: key, Checksum: checksum(buf), Payload: buf}
	data, err = json.Marshal(env)
	if err != nil {
		return nil, env, fmt.Errorf("store: encode entry %s/%s: %w", kind, key, err)
	}
	return data, env, nil
}

// readEnvelope loads and fully verifies one entry file, returning the
// parsed envelope and the raw file bytes.
func readEnvelope(path string) (*envelope, []byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	var env envelope
	if json.Unmarshal(data, &env) != nil {
		return nil, nil, false
	}
	if env.Version != Version || env.Checksum != checksum(env.Payload) {
		return nil, nil, false
	}
	return &env, data, true
}

// Get returns the payload stored under (kind, key). ok is false when no
// (valid) entry exists; a corrupt or misplaced entry is quarantined and
// reported as absent, never as an error — the caller recomputes and Put
// heals the store. The context only feeds tracing (local I/O is never
// cancelled mid-entry): a traced request gets a "store.local" span
// whose tier attr says whether the memory front, the disk, or nothing
// answered.
func (s *Store) Get(ctx context.Context, kind, key string) ([]byte, bool, error) {
	_, span := obs.StartSpan(ctx, "store.local")
	defer span.End()
	path, err := s.entryPath(kind, key)
	if err != nil {
		span.MarkError()
		return nil, false, err
	}
	ck := kind + "\x00" + key
	s.mu.Lock()
	if s.front != nil {
		if payload, ok := s.front.Get(ck); ok {
			s.stats.MemHits++
			s.disk.touch(path) // keep disk recency in step with the front
			s.mu.Unlock()
			span.SetAttr("tier", "mem")
			return append([]byte(nil), payload...), true, nil
		}
	}
	s.mu.Unlock()

	wl := s.writeLock(addr(kind, key))
	wl.Lock()
	env, raw, ok := readEnvelope(path)
	if ok && (env.Kind != kind || env.Key != key) {
		// Address collision or a file moved by hand: identity must match.
		// Quarantine it like any other corruption — leaving it in place
		// would make every future Get re-read and re-miss it forever.
		home, herr := s.entryPath(env.Kind, env.Key)
		ok = false
		if s.quarantine(path) {
			s.mu.Lock()
			s.dropTrackedLocked(path)
			if herr == nil && home != path {
				s.dropIfVanishedLocked(home)
			}
			s.mu.Unlock()
		}
	} else if !ok {
		if _, serr := os.Lstat(path); serr == nil && s.quarantine(path) {
			// The file exists but does not verify: corrupt entry.
			s.mu.Lock()
			s.dropTrackedLocked(path)
			s.mu.Unlock()
		}
	}
	wl.Unlock()
	if !ok {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		span.SetAttr("tier", "miss")
		return nil, false, nil
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.adoptLocked(path, int64(len(raw)))
	s.rememberLocked(ck, env.Payload)
	s.mu.Unlock()
	span.SetAttr("tier", "disk")
	return append([]byte(nil), env.Payload...), true, nil
}

// GetRaw returns the verified raw envelope bytes stored at (kind,
// address) — the wire form the /v1/store peer routes serve, so a
// receiving replica can re-verify checksum and identity itself. Like
// Get, a corrupt or misplaced entry is quarantined and reported absent.
func (s *Store) GetRaw(kind, address string) ([]byte, bool, error) {
	if !validKind(kind) {
		return nil, false, fmt.Errorf("store: invalid kind %q (want lowercase [a-z0-9-])", kind)
	}
	if !validAddr(address) {
		return nil, false, fmt.Errorf("store: invalid address %q (want 64 lowercase hex)", address)
	}
	path := filepath.Join(s.dir, layoutDir, kind, address[:2], address+".json")
	wl := s.writeLock(address)
	wl.Lock()
	env, raw, ok := readEnvelope(path)
	if ok && (env.Kind != kind || addr(env.Kind, env.Key) != address) {
		home, herr := s.entryPath(env.Kind, env.Key)
		ok = false
		if s.quarantine(path) {
			s.mu.Lock()
			s.dropTrackedLocked(path)
			if herr == nil && home != path {
				s.dropIfVanishedLocked(home)
			}
			s.mu.Unlock()
		}
	} else if !ok {
		if _, serr := os.Lstat(path); serr == nil && s.quarantine(path) {
			s.mu.Lock()
			s.dropTrackedLocked(path)
			s.mu.Unlock()
		}
	}
	wl.Unlock()
	if !ok {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.adoptLocked(path, int64(len(raw)))
	s.mu.Unlock()
	return raw, true, nil
}

// Put stores payload (which must be valid JSON) under (kind, key),
// atomically: a reader — or a crash — can only ever observe the old
// complete entry or the new complete entry. Re-putting a byte-identical
// payload is a no-op. With a budget, Put evicts least-recently-used
// entries (never the one it just wrote) until the store fits. Like
// Get, the context is tracing-only; local writes always complete.
func (s *Store) Put(_ context.Context, kind, key string, payload []byte) error {
	path, err := s.entryPath(kind, key)
	if err != nil {
		return err
	}
	data, env, err := encodeEnvelope(kind, key, payload)
	if err != nil {
		return err
	}

	wl := s.writeLock(addr(kind, key))
	wl.Lock()
	defer wl.Unlock()
	if old, oldRaw, ok := readEnvelope(path); ok {
		if old.Kind == kind && old.Key == key && old.Checksum == env.Checksum {
			s.mu.Lock()
			s.stats.PutNoops++
			s.adoptLocked(path, int64(len(oldRaw)))
			s.rememberLocked(kind+"\x00"+key, env.Payload)
			s.mu.Unlock()
			return nil
		}
	}
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.adoptLocked(path, int64(len(data)))
	s.rememberLocked(kind+"\x00"+key, env.Payload)
	s.enforceBudgetLocked(path)
	s.mu.Unlock()
	return nil
}

// PutRaw verifies raw envelope bytes received from a peer (version,
// kind, payload checksum, and — when addrHint is non-empty — that the
// envelope's identity hashes to the address it was sent for) and stores
// the payload under its recorded identity via the normal Put path, so
// the file on disk is byte-identical to a locally computed one.
func (s *Store) PutRaw(kind, addrHint string, data []byte) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("store: raw entry is not an envelope: %w", err)
	}
	if env.Version != Version {
		return fmt.Errorf("store: raw entry has version %d, want %d", env.Version, Version)
	}
	if env.Kind != kind {
		return fmt.Errorf("store: raw entry kind %q does not match route kind %q", env.Kind, kind)
	}
	if env.Checksum != checksum(env.Payload) {
		return fmt.Errorf("store: raw entry checksum mismatch for %s/%s", env.Kind, env.Key)
	}
	if a := addr(env.Kind, env.Key); addrHint != "" && a != addrHint {
		return fmt.Errorf("store: raw entry identity hashes to %s, not %s", a, addrHint)
	}
	return s.Put(context.Background(), env.Kind, env.Key, env.Payload)
}

// writeAtomic writes data next to path and renames it into place. The
// temp name embeds tmpMarker so Open's sweep recognizes debris from a
// crashed writer.
func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tmpMarker+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	// fsync before rename: on a crash the renamed entry must never be
	// an empty or partial file (the checksum would catch it, but a
	// verified write keeps the store warm across power loss too).
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Budget returns the configured disk budget in bytes (0 = unlimited).
func (s *Store) Budget() int64 { return s.budget }

// Name identifies the store as the local tier of a Backend chain.
func (s *Store) Name() string { return "local" }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.front != nil {
		st.Evictions = s.front.Evictions()
	}
	return st
}

// rememberLocked caches a private copy of payload in the memory front
// (when enabled) under the front key ck, so later caller mutations of
// either slice cannot reach the cache. Callers hold s.mu.
func (s *Store) rememberLocked(ck string, payload []byte) {
	if s.front != nil {
		s.front.Put(ck, append([]byte(nil), payload...))
	}
}
