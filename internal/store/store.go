// Package store is a crash-safe, content-addressed, on-disk result
// store: the persistence layer under the classification engine's memo
// cache, the census pipeline's resume path and the job manager's
// results, shared by rcons, rcatlas and rcserve.
//
// Entries live in namespaced kinds ("search", "census-row", "job") and
// are addressed by the SHA-256 of (kind, key) — keys are canonical
// fingerprints or other deterministic identities, so the same
// computation always lands at the same address regardless of which
// binary performed it. Each entry is a versioned JSON envelope carrying
// the kind, the full key and a SHA-256 checksum of the payload, so
// reads verify both integrity and identity (a hash collision or a stray
// record cannot serve the wrong result). The envelope is also the wire
// form of the /v1/store peer routes (GetRaw, PutRaw).
//
// Layout: DIR/packs/ holds append-only pack files, one per writing
// Store, named by a 16-hex-digit sequence number; DIR/quarantine/ holds
// what failed verification. A pack is a header and a run of frames
// (pack.go has the byte layout). A record frame holds one envelope and
// its address under a CRC-32C; a tombstone frame kills one earlier
// record, naming it by pack and offset. A Store creates its pack on its
// first write, not at Open, so a restart that only reads leaves no file
// behind.
//
// Index: an in-memory map from address to (pack, offset, size) plus a
// recency list. Open builds it by scanning every frame of every pack —
// CRCs only, no JSON — in pack order: a later record of an address
// replaces an earlier one, and a tombstoned record is dropped. A Get is
// one pread of the indexed frame, which must pass its CRC, carry the
// address asked for, and hold an envelope of the current version whose
// kind, key and payload checksum match before it is served. The
// recency list is the store's one recency mechanism, which the budget
// evicts by.
//
// Crash safety: a pack is the recoverable log of its writer. Put
// appends whole frames and syncs the pack before it returns, so an
// acknowledged entry survives a crash. A writer can die at any byte:
// Open then finds the last frame incomplete and truncates it, and
// removes the temporary files of a pack that was never linked into
// place (packs appear under their names only once their header, or a
// compaction's whole output, is synced). A frame whose bytes do not
// verify is copied into the quarantine directory — never served, never
// silently destroyed — and the scan resumes at the next frame that
// verifies; a frame that verifies but holds a wrong envelope (alien
// version, identity that does not match its address) is quarantined by
// the Get that reads it, and a tombstone keeps it dead across restarts.
//
// Sharing a directory: several Stores (in one process or many) may open
// one directory. Each appends only to its own pack and holds that
// pack's writer lock (flock) while it is open; the lock is how the
// others tell a live writer's pack from the pack of one that has gone.
// A Store sees what the others wrote as of its Open, and on a miss it
// looks again: it indexes new packs and the new tails of live writers'
// packs before reporting the miss. It only repairs (truncates) the
// packs of writers that are gone. Close releases the writer lock; a
// process that exits releases it too.
//
// Tiering: the store is one tier of a fleet-wide cache. Backend is the
// tier interface — *Store is the local on-disk tier, *Peer reads
// through to another replica's /v1/store HTTP routes, and Chain
// composes them with write-back healing — so several rcserve replicas
// or census shard workers share one content-addressed result pool and
// a miss anywhere degrades to a recompute, never a failure.
//
// Budget: Options.BudgetBytes caps the envelope bytes of the live
// records a Store may drop: its own and those of writers that are gone.
// Records another live handle appended are served but are that
// handle's to drop. Open enforces the budget on what it found, and
// every Put keeps it by size-aware LRU eviction: least-recently-used
// records are killed with tombstones, deterministically (recency order,
// which Open seeds in pack order). Eviction, overwrites and quarantine
// leave dead bytes in the packs; Compact reclaims them.
//
// Compaction: Compact deletes the quarantine's files, rescans every
// pack, and rewrites the live records of this Store's pack and of the
// packs of writers that are gone into one fresh pack — in recency
// order, so a restart keeps it — dropping dead, damaged and torn bytes
// and re-applying the budget. It never drops or rewrites a record in a
// pack another live handle holds. The fresh pack appears complete or
// not at all; the old packs are unlinked after it, so a crash mid-pass
// leaves duplicates that the next Open indexes once (and, with a
// budget, evicts down again). A compaction holds the packs directory's
// lock (flock) exclusively from its scan to its unlinking, and another
// handle appends a tombstone naming a record outside its own pack only
// under that lock, shared, after checking that the record's pack still
// has its name. So the compaction either reads the tombstone, or the
// handle finds the pack gone, takes in the fresh pack and names the
// copy: a copy sorts after the handle's own pack but stays dead.
//
// Payloads must be JSON (they are embedded verbatim in the envelope);
// Put compacts them, so logically equal payloads are byte-identical on
// disk and re-putting an unchanged result is a no-op that writes
// nothing — which keeps store-enabled runs byte-deterministic.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"rcons/internal/jsonread"
	"rcons/internal/obs"
)

// Version identifies the envelope schema; records holding another
// version are quarantined, not misread.
const Version = 1

const (
	quarantineSub = "quarantine"
	tmpMarker     = ".tmp"
)

// envelope is the stored form of one entry.
type envelope struct {
	Version  int             `json:"version"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"` // "sha256:" + hex of Payload
	Payload  json.RawMessage `json:"payload"`
}

// Options configures a Store.
type Options struct {
	// BudgetBytes caps the envelope bytes of the live records this
	// Store may evict (see the package doc); 0 means unlimited. Open
	// enforces it immediately and every Put maintains it by size-aware
	// LRU eviction. A Put never evicts the entry it just wrote, so a
	// single entry larger than the budget is kept rather than thrashed.
	BudgetBytes int64
}

// Stats reports a store's cumulative behavior. All counters are
// monotone for the life of the process except Entries and Bytes, which
// track the current live records this Store knows about.
type Stats struct {
	// Entries and Bytes count the live records (and their envelope
	// bytes) in this Store's view of the directory: populated at Open,
	// maintained by Put/eviction/quarantine, extended when a miss finds
	// records another writer added, rebuilt by Compact.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// DiskHits read and verified a record; Misses found nothing.
	DiskHits int64 `json:"diskHits"`
	Misses   int64 `json:"misses"`
	// Puts wrote a new or changed entry; PutNoops skipped a write
	// because an identical entry was already stored.
	Puts     int64 `json:"puts"`
	PutNoops int64 `json:"putNoops"`
	// DiskEvictions counts records dropped to respect BudgetBytes.
	DiskEvictions int64 `json:"diskEvictions"`
	// Quarantined counts damaged records, byte ranges and packs moved
	// aside (at Open, Get or Compact).
	Quarantined int64 `json:"quarantined"`
	// Compactions counts completed Compact passes.
	Compactions int64 `json:"compactions"`
	// MemHits is always 0: the store has no memory front. It stays only
	// because rcperf's store.mem_hit_ratio metric reads it, and goes
	// when that metric does.
	MemHits int64 `json:"-"`
}

// Store is a content-addressed result store rooted at one directory.
// It is safe for concurrent use, and several Stores may share a
// directory (see the package doc).
type Store struct {
	dir    string
	packs  string // dir/packs
	budget int64
	// packsDir is the open packs directory. Its lock orders tombstones
	// against compactions: a Compact holds it exclusively, and a
	// tombstone naming a record in another writer's pack is appended
	// under it shared (see lockTargets). It is taken only under wmu, so
	// one Store's Compact (rmu, then the lock) and lockTargets (the
	// lock, then rmu) never wait on each other.
	packsDir *os.File

	// Lock order: a writeLocks stripe, then wmu, then rmu, then mu.
	//
	// writeLocks serialize the disk sections per address (striped): a
	// Get's read and verification, a Put's check-then-append. Compact
	// takes every stripe.
	writeLocks [64]sync.Mutex
	// wmu serializes appends to own and guards own.end.
	wmu sync.Mutex
	// rmu serializes scans of the directory and guards the end of
	// every pack but own.
	rmu sync.Mutex

	mu  sync.Mutex
	idx *index
	// dead maps the positions tombstones have killed to the addresses
	// of the records they held.
	dead map[pos][32]byte
	// open holds every pack this Store has opened, by sequence number;
	// own is the one it appends to (nil until its first write).
	open  map[uint64]*pack
	own   *pack
	stats Stats
	// closed is set by Close (under wmu and mu).
	closed bool
}

var errClosed = errors.New("store: closed")

// writeLock returns the stripe guarding the given address.
func (s *Store) writeLock(a *[32]byte) *sync.Mutex { return &s.writeLocks[a[0]%64] }

// Open initializes dir (creating it if needed) and indexes every pack in
// it. Packs whose writers are gone are repaired: a torn tail is
// truncated, a damaged one quarantined, and temporary files of packs
// that were never linked into place are deleted. Damaged frames inside
// any pack are quarantined and skipped. Open reads each pack once and
// checks one CRC per frame, so it is O(store size) but parses no JSON.
// With a budget, Open finishes by evicting least-recently-written
// records until the store fits.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if opts.BudgetBytes < 0 {
		return nil, fmt.Errorf("store: negative budget %d", opts.BudgetBytes)
	}
	for _, sub := range []string{packsSub, quarantineSub} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: init %s: %w", dir, err)
		}
	}
	s := &Store{
		dir: dir, packs: filepath.Join(dir, packsSub), budget: opts.BudgetBytes,
		idx: newIndex(), dead: map[pos][32]byte{}, open: map[uint64]*pack{},
	}
	var err error
	if s.packsDir, err = os.Open(s.packs); err != nil {
		return nil, fmt.Errorf("store: init %s: %w", dir, err)
	}
	if _, err := s.refresh(true); err != nil {
		s.Close()
		return nil, err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.evictLocked(nil, nil); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the Store's files and its pack's writer lock, after
// which other handles may repair, absorb and evict what it wrote. After
// Close, Get, Put and Compact fail or miss; a second Close is a no-op.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	first := s.packsDir.Close()
	for _, p := range s.open {
		if err := p.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.open, s.own, s.idx = map[uint64]*pack{}, nil, newIndex()
	return first
}

// refresh indexes what the directory holds beyond this Store's view:
// packs it has not opened, and the new tails of packs whose writers
// were live when it last looked. With repair (at Open) it also deletes
// dead writers' temporary files and cuts torn or damaged tails off
// their packs; without, it changes no pack. It returns the opened packs
// whose names are gone: another handle compacted them away.
func (s *Store) refresh(repair bool) (removed []*pack, err error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	names, err := os.ReadDir(s.packs)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", s.packs, err)
	}
	listed := make(map[uint64]bool, len(names))
	for _, d := range names { // sorted by name, so by sequence number
		name := d.Name()
		if strings.Contains(name, tmpMarker) {
			if repair {
				removeDebris(filepath.Join(s.packs, name))
			}
			continue
		}
		seq, ok := parsePackName(name)
		if !ok {
			continue
		}
		listed[seq] = true
		s.mu.Lock()
		p := s.open[seq]
		s.mu.Unlock()
		switch {
		case p == nil:
			p, gone, err := s.openPack(seq, repair)
			if err != nil {
				return nil, err
			}
			if p == nil {
				continue
			}
			s.mu.Lock()
			s.open[seq] = p
			s.mu.Unlock()
			err = s.load(p, packHeader, s.idx, s.dead, gone && repair)
			if gone {
				unlock(p.f)
			}
			if err != nil {
				return nil, err
			}
		case p.held:
			if err := s.load(p, p.end, s.idx, s.dead, false); err != nil {
				return nil, err
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq, p := range s.open {
		if !listed[seq] {
			removed = append(removed, p)
		}
	}
	return removed, nil
}

// lookAgain is refresh for a miss. When it finds packs compacted away,
// it lets go of them under the packs directory's lock (see
// releaseRemoved). Callers hold an address stripe and no other lock.
func (s *Store) lookAgain() error {
	removed, err := s.refresh(false)
	if err != nil || len(removed) == 0 {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	lockShared(s.packsDir)
	defer unlock(s.packsDir)
	return s.releaseRemoved()
}

// releaseRemoved reads the directory again, then closes and forgets
// every opened pack whose name is gone. The caller holds the packs
// directory's lock, so no compaction is half done: the listing holds
// the fresh pack of every compaction that removed one, whose copies
// replace the removed packs' records, and the records the compaction
// dropped are forgotten. Callers hold wmu.
func (s *Store) releaseRemoved() error {
	removed, err := s.refresh(false)
	if err != nil || len(removed) == 0 {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.idx.recs {
		if slices.Contains(removed, r.p) {
			s.idx.remove(r)
		}
	}
	for _, p := range removed {
		delete(s.open, p.seq)
		p.f.Close()
	}
	return nil
}

// openPack opens the pack with sequence number seq. gone says its
// writer lock was free — its writer has exited — and that the caller
// now holds that lock. It returns a nil pack for one that vanished
// (compacted away meanwhile) or that this version cannot read: a future
// version's, or one damaged in its header; with repair, such a pack
// whose writer is gone is moved whole into quarantine.
func (s *Store) openPack(seq uint64, repair bool) (p *pack, gone bool, err error) {
	path := filepath.Join(s.packs, packName(seq))
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: open pack: %w", err)
	}
	gone = tryLock(f)
	head := make([]byte, packHeader)
	if n, _ := f.ReadAt(head, 0); !readableHeader(head[:n]) {
		if gone && repair && s.quarantineFile(path, filepath.Base(path)) {
			s.count(func(st *Stats) { st.Quarantined++ })
		}
		f.Close()
		return nil, false, nil
	}
	return &pack{seq: seq, path: path, f: f, held: !gone, end: packHeader}, gone, nil
}

// load applies the frames of p from offset from to the end of the file
// to the index x and its killed positions, and records where verified
// frames end as p.end. Damaged byte ranges followed by a good frame are
// quarantined and skipped. Where verified frames end short of the file,
// repair (for a pack whose writer lock the caller holds) quarantines a
// damaged tail and truncates the pack there; otherwise the tail is left
// for a later look, since its writer may be mid-append. Callers hold rmu
// (or Compact's locks).
func (s *Store) load(p *pack, from int64, x *index, dead map[pos][32]byte, repair bool) error {
	data, err := readFrom(p.f, from)
	if err != nil {
		return fmt.Errorf("store: read pack %s: %w", p.path, err)
	}
	s.mu.Lock()
	res := scanFrames(data, from, func(fr frame) { applyFrame(x, dead, p, fr) })
	p.end = res.stop
	s.mu.Unlock()
	for _, d := range res.damaged {
		s.saveCorpse(p, d[0], data[d[0]-from:d[1]-from])
	}
	if repair && res.stop < from+int64(len(data)) {
		if res.tailDamaged {
			s.saveCorpse(p, res.stop, data[res.stop-from:])
		}
		if err := os.Truncate(p.path, res.stop); err != nil {
			return fmt.Errorf("store: truncate torn pack %s: %w", p.path, err)
		}
	}
	return nil
}

// applyFrame applies one of p's verified frames to an index and its set
// of killed positions; a pack's frames are applied in order. A record
// replaces an older record of its address unless a tombstone killed it,
// and a tombstone kills its target.
func applyFrame(x *index, dead map[pos][32]byte, p *pack, fr frame) {
	switch fr.typ {
	case typeRecord:
		at := pos{p.seq, fr.off}
		if _, killed := dead[at]; killed {
			return
		}
		if old := x.get(fr.addr); old != nil && old.at().after(at) {
			return
		}
		x.put(&rec{addr: fr.addr, p: p, off: fr.off, size: int64(len(fr.body))})
	case typeTombstone:
		at, ok := tombstoneTarget(fr.body)
		if !ok {
			return
		}
		dead[at] = fr.addr
		if r := x.get(fr.addr); r != nil && r.at() == at {
			x.remove(r)
		}
	}
}

// removeDebris deletes a temporary pack file unless a live writer holds
// it (it is about to link it into place).
func removeDebris(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	if tryLock(f) || !lockSupported {
		os.Remove(path)
	}
}

// saveCorpse copies damaged bytes found at (p, off) into the quarantine
// directory, named after their position, and counts them once: finding
// the same damage again (the next Open scans the same pack) neither
// re-copies nor re-counts it. Quarantine is best-effort containment;
// the bytes are never served either way.
func (s *Store) saveCorpse(p *pack, off int64, b []byte) {
	path := filepath.Join(s.dir, quarantineSub, fmt.Sprintf("%s@%d", filepath.Base(p.path), off))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return
	}
	_, werr := f.Write(b)
	if cerr := f.Close(); werr != nil || cerr != nil {
		os.Remove(path)
		return
	}
	s.count(func(st *Stats) { st.Quarantined++ })
}

// quarantineFile moves path into the quarantine directory under name,
// adding a numeric suffix when that name is taken, so successive
// corpses are all kept.
func (s *Store) quarantineFile(path, name string) bool {
	for n := 0; n < 10000; n++ {
		dest := filepath.Join(s.dir, quarantineSub, name)
		if n > 0 {
			dest = fmt.Sprintf("%s.%d", dest, n)
		}
		if _, err := os.Lstat(dest); err == nil {
			continue
		}
		return os.Rename(path, dest) == nil
	}
	return false
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// appendLocked writes whole frames at the end of the Store's pack,
// creating the pack on the first write, and syncs it. It returns the
// pack and the offset of buf's first frame. Callers hold wmu.
func (s *Store) appendLocked(buf []byte) (*pack, int64, error) {
	if s.closed {
		return nil, 0, errClosed
	}
	if p := s.own; p != nil {
		off := p.end
		if _, err := p.f.WriteAt(buf, off); err != nil {
			_ = p.f.Truncate(off)
			return nil, 0, err
		}
		if err := p.f.Sync(); err != nil {
			return nil, 0, err
		}
		p.end += int64(len(buf))
		return p, off, nil
	}
	p, err := createPack(s.packs, s.nextSeq(), buf)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.own, s.open[p.seq] = p, p
	s.mu.Unlock()
	return p, packHeader, nil
}

// nextSeq returns a sequence number above every pack in the directory
// and every pack this Store has open.
func (s *Store) nextSeq() uint64 {
	var next uint64
	if names, err := os.ReadDir(s.packs); err == nil {
		for _, d := range names {
			if seq, ok := parsePackName(d.Name()); ok && seq >= next {
				next = seq + 1
			}
		}
	}
	s.mu.Lock()
	for seq := range s.open {
		next = max(next, seq+1)
	}
	s.mu.Unlock()
	return next
}

// evictLocked keeps the budget: it chooses least-recently-used
// evictable records until the evictable bytes fit, appends their
// tombstones after prefix in one write, and drops them from the index.
// For a Put, prefix is the new record's frame and put its index entry
// (positioned here once written): its size counts toward the budget, it
// is never a victim, and the record it replaces gets a tombstone too.
// Callers hold wmu; the victims' stripes are not held, so a concurrent
// Get may still serve a victim it had already found.
func (s *Store) evictLocked(prefix []byte, put *rec) error {
	for {
		old, victims := s.chooseVictims(put)
		kill := victims
		if old != nil {
			kill = append(kill, old) // the overwritten record stays dead
		}
		release, ok, err := s.lockTargets(kill)
		if err != nil {
			return err
		}
		if !ok {
			continue // a compaction moved some of them: choose again
		}
		err = s.appendKilling(prefix, put, kill)
		release()
		if err != nil {
			return err
		}
		s.mu.Lock()
		for _, v := range victims {
			if s.idx.get(v.addr) == v {
				s.idx.remove(v)
				s.stats.DiskEvictions++
			}
		}
		s.mu.Unlock()
		return nil
	}
}

// chooseVictims returns the record put replaces, if any, and the
// least-recently-used evictable records whose removal brings the store
// within its budget.
func (s *Store) chooseVictims(put *rec) (old *rec, victims []*rec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	need := s.idx.listedBytes - s.budget
	if put != nil {
		need += put.size
		if old = s.idx.get(put.addr); old != nil && old.listed {
			need -= old.size
		}
	}
	if s.budget > 0 {
		for r := s.idx.lru.prev; need > 0 && r != &s.idx.lru; r = r.prev {
			if r != old {
				victims = append(victims, r)
				need -= r.size
			}
		}
	}
	return old, victims
}

// appendKilling appends prefix followed by a tombstone for each record
// of kill, records the kills, and indexes put (when not nil) at the
// position prefix was written to. The index keeps the killed records;
// the caller drops them. Callers hold wmu.
func (s *Store) appendKilling(prefix []byte, put *rec, kill []*rec) error {
	buf := prefix
	for _, r := range kill {
		buf = appendTombstone(buf, r.addr, r.at())
	}
	if len(buf) == 0 {
		return nil
	}
	p, off, err := s.appendLocked(buf)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if put != nil {
		put.p, put.off = p, off
		s.idx.put(put)
		s.stats.Puts++
	}
	for _, r := range kill {
		s.dead[r.at()] = r.addr
	}
	return nil
}

// lockTargets makes it safe to name recs in tombstones. A compaction
// may copy a record of another writer's pack into a fresh pack, which
// sorts later, and then remove the old pack; a tombstone naming the old
// position would then leave the copy alive after a restart. So when any
// of recs lies in another writer's pack, lockTargets takes the packs
// directory's lock shared — a Compact holds it exclusively from its
// scan to its removals — and checks that none of those packs has been
// removed: either a compaction that has not yet scanned will read the
// tombstones, or there is none. It returns the lock's release. If a
// pack was removed, it lets go of the removed packs (releaseRemoved),
// releases the lock and returns ok false; the caller then chooses its
// targets again. Callers hold wmu.
func (s *Store) lockTargets(recs []*rec) (release func(), ok bool, err error) {
	var others []*pack
	s.mu.Lock()
	for _, r := range recs {
		if r.p != s.own && !slices.Contains(others, r.p) {
			others = append(others, r.p)
		}
	}
	s.mu.Unlock()
	if len(others) == 0 {
		return func() {}, true, nil
	}
	lockShared(s.packsDir)
	if !slices.ContainsFunc(others, func(p *pack) bool { return unlinked(p.f) }) {
		return func() { unlock(s.packsDir) }, true, nil
	}
	defer unlock(s.packsDir)
	return nil, false, s.releaseRemoved()
}

// Addr derives the content address of (kind, key) — what the /v1/store
// peer routes use as the {addr} path element. Exported so clients of
// those routes can build URLs without re-implementing the hash.
func Addr(kind, key string) string { return addr(kind, key) }

// addr is the hex form of rawAddr.
func addr(kind, key string) string {
	a := rawAddr(kind, key)
	return hex.EncodeToString(a[:])
}

// rawAddr derives the content address of (kind, key): a SHA-256 over
// both. It keys the index and stands in every record's frame.
func rawAddr[S string | []byte](kind, key S) [32]byte {
	var buf [256]byte
	return sha256.Sum256(append(append(append(buf[:0], kind...), 0), key...))
}

func errKind(kind string) error {
	return fmt.Errorf("store: invalid kind %q (want lowercase [a-z0-9-])", kind)
}

// validKind keeps kinds printable and usable as URL path elements.
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

// parseAddr accepts exactly the addresses Addr produces: 64 lowercase
// hex characters.
func parseAddr(s string) ([32]byte, bool) {
	var a [32]byte
	if len(s) != 64 || strings.ToLower(s) != s {
		return a, false
	}
	_, err := hex.Decode(a[:], []byte(s))
	return a, err == nil
}

func checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// encodeEnvelope canonicalizes payload (which must be JSON) and wraps
// it in a versioned, checksummed envelope — the exact bytes Store.Put
// stores and Peer.Put ships, so every tier holds identical records.
func encodeEnvelope(kind, key string, payload []byte) (data []byte, env envelope, err error) {
	if !validKind(kind) {
		return nil, env, errKind(kind)
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

// entry is an envelope as decodeEnvelope reads it: its kind and key,
// and its payload as a subslice of the envelope bytes.
type entry struct {
	kind, key, payload []byte
}

// decodeEnvelope parses and verifies envelope bytes in one pass: the
// current version and a payload matching its checksum. Identity is the
// caller's to check. It accepts what json.Unmarshal into an envelope,
// followed by those checks, accepts (FuzzEnvelope); a kind or key that
// needs no unquoting and the payload are read in place, not copied.
func decodeEnvelope(data []byte) (entry, error) {
	var (
		e       entry
		version int
		sum     []byte
	)
	r := jsonread.NewReader(data)
	str := func(dst *[]byte, what string) error {
		s, ok, err := r.String(what)
		if ok {
			*dst = s
		}
		return err
	}
	err := r.Struct("an envelope", func(k []byte) error {
		switch {
		case jsonread.FieldIs(k, "version"):
			n, ok, err := r.Int(`"version"`)
			if ok {
				version = n
			}
			return err
		case jsonread.FieldIs(k, "kind"):
			return str(&e.kind, `"kind"`)
		case jsonread.FieldIs(k, "key"):
			return str(&e.key, `"key"`)
		case jsonread.FieldIs(k, "checksum"):
			return str(&sum, `"checksum"`)
		case jsonread.FieldIs(k, "payload"):
			raw, err := r.Raw()
			if err == nil {
				e.payload = raw
			}
			return err
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		// encoding/json words the error, as it did when it decoded.
		if jerr := json.Unmarshal(data, new(envelope)); jerr != nil {
			err = jerr
		}
		return entry{}, fmt.Errorf("store: not an envelope: %w", err)
	}
	if version != Version {
		return entry{}, fmt.Errorf("store: envelope has version %d, want %d", version, Version)
	}
	if !sumMatches(sum, e.payload) {
		return entry{}, fmt.Errorf("store: envelope checksum mismatch for %s/%s", e.kind, e.key)
	}
	return e, nil
}

// sumMatches reports whether sum is checksum(payload), comparing the
// 32 digest bytes it spells rather than rendering the expected text.
func sumMatches(sum, payload []byte) bool {
	const prefix = "sha256:"
	var want [sha256.Size]byte
	if len(sum) != len(prefix)+2*len(want) || string(sum[:len(prefix)]) != prefix {
		return false
	}
	for i, h := range sum[len(prefix):] {
		var v byte
		switch {
		case '0' <= h && h <= '9':
			v = h - '0'
		case 'a' <= h && h <= 'f': // lowercase only, as checksum writes it
			v = h - 'a' + 10
		default:
			return false
		}
		want[i/2] = want[i/2]<<4 | v
	}
	return sha256.Sum256(payload) == want
}

// read returns the verified envelope stored at address a, and its raw
// bytes; ok is false when there is none. A miss in the index sends the
// Store looking for what other writers appended. A record that fails
// verification — its frame, its address, its envelope, or match, the
// caller's identity check — is quarantined and reported absent.
func (s *Store) read(a *[32]byte, match func(*entry) bool) (*rec, entry, []byte, bool, error) {
	wl := s.writeLock(a)
	wl.Lock()
	defer wl.Unlock()
	s.mu.Lock()
	r := s.idx.get(*a)
	s.mu.Unlock()
	if r == nil {
		if err := s.lookAgain(); err != nil {
			return nil, entry{}, nil, false, err
		}
		s.mu.Lock()
		r = s.idx.get(*a)
		s.mu.Unlock()
		if r == nil {
			return nil, entry{}, nil, false, nil
		}
	}
	buf := make([]byte, frameHeader+r.size)
	if _, err := r.p.f.ReadAt(buf, r.off); err != nil {
		// The frame is gone from under the index (the pack shrank or
		// vanished): forget it and recompute.
		s.mu.Lock()
		s.idx.remove(r)
		s.mu.Unlock()
		return nil, entry{}, nil, false, nil
	}
	fr, n, ok, _ := parseFrame(buf)
	if ok && n == len(buf) && fr.typ == typeRecord && fr.addr == *a {
		if e, err := decodeEnvelope(fr.body); err == nil && match(&e) {
			return r, e, fr.body, true, nil
		}
	}
	s.quarantineRec(r, buf)
	return nil, entry{}, nil, false, nil
}

// quarantineRec moves the record r aside after a read failed to verify
// it: its frame bytes go to the quarantine directory, a tombstone keeps
// it dead across restarts, and the index forgets it. If a compaction
// has moved r meanwhile, the index now holds the copy instead, which
// its first read verifies in turn. Callers hold r's stripe.
func (s *Store) quarantineRec(r *rec, frameBytes []byte) {
	s.saveCorpse(r.p, r.off, frameBytes)
	s.wmu.Lock()
	if release, ok, err := s.lockTargets([]*rec{r}); err == nil && ok {
		// Without its tombstone a restart indexes r again, and its
		// first read quarantines it again.
		_ = s.appendKilling(nil, nil, []*rec{r})
		release()
	}
	s.wmu.Unlock()
	s.mu.Lock()
	s.idx.remove(r)
	s.mu.Unlock()
}

// Get returns the payload stored under (kind, key). ok is false when no
// (valid) entry exists; a corrupt or misplaced record is quarantined and
// reported as absent, never as an error — the caller recomputes and Put
// heals the store. The context only feeds tracing (local I/O is never
// cancelled mid-entry): a traced request gets a "store.local" span
// whose tier attr says whether the disk or nothing answered. The
// payload is the caller's own: each Get reads into a fresh buffer.
func (s *Store) Get(ctx context.Context, kind, key string) ([]byte, bool, error) {
	_, span := obs.StartSpan(ctx, "store.local")
	defer span.End()
	if !validKind(kind) {
		span.MarkError()
		return nil, false, errKind(kind)
	}
	a := rawAddr(kind, key)
	r, e, _, ok, err := s.read(&a, func(e *entry) bool { return string(e.kind) == kind && string(e.key) == key })
	if err != nil {
		span.MarkError()
		return nil, false, err
	}
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		span.SetAttr("tier", "miss")
		return nil, false, nil
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.idx.touch(r)
	s.mu.Unlock()
	span.SetAttr("tier", "disk")
	return e.payload, true, nil
}

// GetRaw returns the verified raw envelope bytes stored at (kind,
// address) — the wire form the /v1/store peer routes serve, so a
// receiving replica can re-verify checksum and identity itself. Like
// Get, a corrupt or misplaced record is quarantined and reported absent.
func (s *Store) GetRaw(kind, address string) ([]byte, bool, error) {
	if !validKind(kind) {
		return nil, false, errKind(kind)
	}
	a, ok := parseAddr(address)
	if !ok {
		return nil, false, fmt.Errorf("store: invalid address %q (want 64 lowercase hex)", address)
	}
	r, e, raw, ok, err := s.read(&a, func(e *entry) bool { return rawAddr(e.kind, e.key) == a })
	if err != nil {
		return nil, false, err
	}
	if !ok || string(e.kind) != kind { // a sound record of another kind is no hit
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.idx.touch(r)
	s.mu.Unlock()
	return raw, true, nil
}

// Put stores payload (which must be valid JSON) under (kind, key): it
// builds the envelope, appends it as one frame and syncs the pack, so a
// crash keeps either the old entry or the new one. Re-putting a
// byte-identical payload is a no-op. With a budget, Put evicts
// least-recently-used records (never the one it just wrote) until the
// store fits, in the same write. Like Get, the context is tracing-only;
// local writes always complete.
func (s *Store) Put(_ context.Context, kind, key string, payload []byte) error {
	return s.put(rawAddr(kind, key), kind, key, payload)
}

// put is Put with the address of (kind, key) already derived.
func (s *Store) put(a [32]byte, kind, key string, payload []byte) error {
	data, _, err := encodeEnvelope(kind, key, payload)
	if err != nil {
		return err
	}
	if uint64(len(data)) > 1<<32-1 {
		return fmt.Errorf("store: entry %s/%s is %d bytes, over a frame's 4 GiB", kind, key, len(data))
	}
	wl := s.writeLock(&a)
	wl.Lock()
	defer wl.Unlock()
	s.mu.Lock()
	old := s.idx.get(a)
	s.mu.Unlock()
	if old != nil && old.size == int64(len(data)) && s.holds(old, data) {
		s.mu.Lock()
		if s.idx.get(a) == old { // not evicted meanwhile
			s.stats.PutNoops++
			s.idx.touch(old)
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	r := &rec{addr: a, size: int64(len(data))}
	if err := s.evictLocked(appendFrame(nil, typeRecord, &a, data), r); err != nil {
		return fmt.Errorf("store: write %s/%s: %w", kind, key, err)
	}
	return nil
}

// holds reports whether the record r stores exactly the envelope data.
func (s *Store) holds(r *rec, data []byte) bool {
	buf := make([]byte, r.size)
	if _, err := r.p.f.ReadAt(buf, r.off+frameHeader); err != nil {
		return false
	}
	return bytes.Equal(buf, data)
}

// PutRaw verifies raw envelope bytes received from a peer (version,
// kind, payload checksum, and — when addrHint is non-empty — that the
// envelope's identity hashes to the address it was sent for) and stores
// the payload under its recorded identity via the normal Put path, so
// the stored record is byte-identical to a locally computed one.
func (s *Store) PutRaw(kind, addrHint string, data []byte) error {
	e, err := decodeEnvelope(data)
	if err != nil {
		return err
	}
	if string(e.kind) != kind {
		return fmt.Errorf("store: raw entry kind %q does not match route kind %q", e.kind, kind)
	}
	a := rawAddr(e.kind, e.key)
	if hexAddr := hex.EncodeToString(a[:]); addrHint != "" && hexAddr != addrHint {
		return fmt.Errorf("store: raw entry identity hashes to %s, not %s", hexAddr, addrHint)
	}
	return s.put(a, kind, string(e.key), e.payload)
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
	st.Entries, st.Bytes = int64(s.idx.len()), s.idx.bytes
	return st
}
