package store

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rcons/internal/obs"
)

// CompactStats reports what one Compact pass did.
type CompactStats struct {
	// QuarantineRemoved counts quarantined corpses deleted.
	QuarantineRemoved int `json:"quarantineRemoved"`
	// Entries/Bytes before and after — Before is this Store's view going
	// in, After the view rebuilt from every pack (post-eviction).
	EntriesBefore int64 `json:"entriesBefore"`
	EntriesAfter  int64 `json:"entriesAfter"`
	BytesBefore   int64 `json:"bytesBefore"`
	BytesAfter    int64 `json:"bytesAfter"`
	// Evicted counts records this pass dropped to meet the budget.
	Evicted int64 `json:"evicted"`
}

// Compact is the store's compaction pass, safe to run online (it
// blocks this Store's reads and writes while it runs) or offline
// (rcatlas compact):
//
//  1. quarantine debris is deleted — corpses have served their
//     diagnostic purpose once an operator decides to compact;
//  2. every pack is read again and the index rebuilt from them, taking
//     in whatever other handles appended;
//  3. the byte budget is re-applied by size-aware LRU eviction;
//  4. the live records of this Store's pack and of the packs of
//     writers that are gone are copied into one fresh pack, oldest
//     first, and those packs are unlinked: dead, damaged and torn bytes
//     are gone. Packs other live handles hold are left as they are.
//
// Recency survives the rebuild: records this Store has been serving
// keep their LRU order, while records it had not seen enter at the cold
// end in pack order, so handles compacting the same packs evict the same
// victims. The fresh pack is linked into place only once complete, and
// the old packs are unlinked after it; a crash in between leaves
// duplicates that the next Open indexes once.
func (s *Store) Compact(ctx context.Context) (CompactStats, error) {
	_, span := obs.StartSpan(ctx, "store.compact")
	defer span.End()
	for i := range s.writeLocks {
		s.writeLocks[i].Lock()
	}
	defer func() {
		for i := range s.writeLocks {
			s.writeLocks[i].Unlock()
		}
	}()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.closed {
		return CompactStats{}, errClosed
	}
	// Other handles append no tombstone naming another writer's pack
	// while this lock is held (see lockTargets), so none can name a
	// record between this pass's scan and its removal of the old packs.
	lockExclusive(s.packsDir)
	defer unlock(s.packsDir)

	var cs CompactStats
	s.mu.Lock()
	cs.EntriesBefore, cs.BytesBefore = int64(s.idx.len()), s.idx.bytes
	known := s.idx.oldestFirst()
	s.mu.Unlock()

	// 1. Drop quarantine debris.
	qdir := filepath.Join(s.dir, quarantineSub)
	if names, err := os.ReadDir(qdir); err == nil {
		for _, d := range names {
			if !d.IsDir() && os.Remove(filepath.Join(qdir, d.Name())) == nil {
				cs.QuarantineRemoved++
			}
		}
	}

	// 2. Read every pack again into a fresh view. The packs this Store
	// may rewrite are its own and those whose writer lock it can take.
	scratch, dead := newIndex(), map[pos][32]byte{}
	mine, kept, err := s.reload(scratch, dead)
	fail := func(err error) (CompactStats, error) {
		for _, p := range mine {
			if !p.own {
				unlock(p.f)
			}
		}
		return cs, err
	}
	if err != nil {
		return fail(err)
	}
	x := newIndex()
	seen := make(map[[32]byte]bool, len(known))
	for _, r := range known {
		seen[r.addr] = true
	}
	var held []*rec
	for _, r := range scratch.recs {
		if !r.listed {
			held = append(held, r)
		}
	}
	for _, r := range scratch.oldestFirst() {
		if !seen[r.addr] {
			x.put(r) // records this Store had not seen: the cold end
		}
	}
	for _, k := range known {
		if r := scratch.get(k.addr); r != nil && r.listed {
			x.put(r)
		}
	}
	for _, r := range held {
		x.put(r)
	}

	// 3. Re-apply the budget.
	for s.budget > 0 && x.listedBytes > s.budget {
		x.remove(x.lru.prev) // the least recently used
		cs.Evicted++
	}

	// 4. Copy what is ours into a fresh pack.
	for at := range dead {
		if _, stays := kept[at.seq]; !stays {
			delete(dead, at)
		}
	}
	var fresh *pack
	if len(mine) > 0 {
		if fresh, err = s.rewrite(x, dead); err != nil {
			return fail(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range mine {
		// A pack left behind by a failed unlink only duplicates records
		// of the fresh pack; the next compaction takes it in.
		_ = os.Remove(p.path)
		p.f.Close()
	}
	for seq, p := range s.open {
		if _, stays := kept[seq]; !stays && !slices.Contains(mine, p) {
			p.f.Close() // vanished: another handle compacted it away
		}
	}
	s.own = fresh
	if fresh != nil {
		kept[fresh.seq] = fresh
	}
	s.open, s.idx, s.dead = kept, x, dead
	s.stats.DiskEvictions += cs.Evicted
	s.stats.Compactions++
	cs.EntriesAfter, cs.BytesAfter = int64(x.len()), x.bytes
	return cs, nil
}

// reload reads every pack in the directory into x and dead. It returns
// the packs this Store may rewrite (mine: its own, and each pack whose
// writer lock it could take, now held) and the ones it must leave (kept,
// by sequence number). Callers hold Compact's locks.
func (s *Store) reload(x *index, dead map[pos][32]byte) (mine []*pack, kept map[uint64]*pack, err error) {
	kept = map[uint64]*pack{}
	names, err := os.ReadDir(s.packs)
	if err != nil {
		return nil, nil, fmt.Errorf("store: compact rescan %s: %w", s.packs, err)
	}
	for _, d := range names {
		name := d.Name()
		if strings.Contains(name, tmpMarker) {
			removeDebris(filepath.Join(s.packs, name))
			continue
		}
		seq, ok := parsePackName(name)
		if !ok {
			continue
		}
		s.mu.Lock()
		p := s.open[seq]
		s.mu.Unlock()
		var gone bool
		if p == nil {
			if p, gone, err = s.openPack(seq, true); err != nil {
				return mine, nil, err
			}
			if p == nil {
				continue
			}
		} else {
			gone = p.own || tryLock(p.f)
		}
		s.mu.Lock()
		p.held = !gone
		s.mu.Unlock()
		if gone {
			mine = append(mine, p)
		} else {
			kept[seq] = p
		}
		if err := s.load(p, packHeader, x, dead, gone); err != nil {
			return mine, nil, err
		}
	}
	return mine, kept, nil
}

// rewrite copies x's evictable records — all in packs that are mine —
// into a fresh pack, oldest first, frame by frame, followed by a
// tombstone for each position in dead, and points the records at it. A
// frame that no longer verifies is dropped. The pack is created even
// when empty: its sequence number stays above the packs it replaces, so
// no later pack reuses one that a live writer's tombstone may name.
func (s *Store) rewrite(x *index, dead map[pos][32]byte) (*pack, error) {
	live := x.oldestFirst()
	offs := make([]int64, len(live))
	var body []byte
	for i, r := range live {
		start := len(body)
		body = slices.Grow(body, frameHeader+int(r.size))[:start+frameHeader+int(r.size)]
		fr := body[start:]
		if _, err := r.p.f.ReadAt(fr, r.off); err != nil {
			return nil, fmt.Errorf("store: compact: read %s: %w", r.p.path, err)
		}
		if got, n, ok, _ := parseFrame(fr); !ok || n != len(fr) || got.addr != r.addr {
			body = body[:start]
			x.remove(r)
			offs[i] = -1
			continue
		}
		offs[i] = int64(packHeader + start)
	}
	ats := make([]pos, 0, len(dead))
	for at := range dead {
		ats = append(ats, at)
	}
	slices.SortFunc(ats, func(a, b pos) int { return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.off, b.off)) })
	for _, at := range ats {
		body = appendTombstone(body, dead[at], at)
	}
	fresh, err := createPack(s.packs, s.nextSeq(), body)
	if err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	for i, r := range live {
		if offs[i] >= 0 {
			r.p, r.off = fresh, offs[i]
		}
	}
	return fresh, nil
}
