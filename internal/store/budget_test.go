package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// entrySize returns the on-disk envelope size for a payload written
// under (kind, key) — the unit the budget is accounted in.
func entrySize(t *testing.T, kind, key string, payload []byte) int64 {
	t.Helper()
	data, _, err := encodeEnvelope(kind, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

// liveEntries opens a fresh handle on dir and reports how many live
// records it finds.
func liveEntries(t *testing.T, dir string) int64 {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	return s.Stats().Entries
}

// TestEvictedEntryMissesEveryTier: once the budget evicts a record,
// Get, GetRaw (what the peer route serves) and Stats all agree that it
// is gone.
func TestEvictedEntryMissesEveryTier(t *testing.T) {
	payload := []byte(`{"v":"0123456789abcdef"}`)
	s := mustOpen(t, t.TempDir(), Options{BudgetBytes: entrySize(t, "search", "k1", payload)})
	for _, k := range []string{"k1", "k2"} {
		if err := s.Put(context.Background(), "search", k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok, _ := s.Get(context.Background(), "search", "k1"); ok {
		t.Fatalf("Get served the evicted k1: %s", got)
	}
	if got, ok, _ := s.GetRaw("search", Addr("search", "k1")); ok {
		t.Fatalf("GetRaw served the evicted k1: %s", got)
	}
	if st := s.Stats(); st.Entries != 1 || st.DiskEvictions != 1 {
		t.Fatalf("stats after one eviction: %+v", st)
	}
}

func TestBudgetEvictsLRUOnPut(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":"0123456789abcdef"}`)
	one := entrySize(t, "search", "k0", payload)
	// Room for three entries, not four.
	s := mustOpen(t, dir, Options{BudgetBytes: 3*one + one/2})
	for i := 0; i < 3; i++ {
		if err := s.Put(context.Background(), "search", fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DiskEvictions != 0 || st.Entries != 3 || st.Bytes != 3*one {
		t.Fatalf("under budget yet evicted: %+v", st)
	}
	// Touch k0 so k1 is the LRU victim of the next Put.
	if _, ok, _ := s.Get(context.Background(), "search", "k0"); !ok {
		t.Fatal("k0 lost")
	}
	if err := s.Put(context.Background(), "search", "k3", payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DiskEvictions != 1 || st.Entries != 3 || st.Bytes != 3*one {
		t.Fatalf("stats after over-budget put: %+v", st)
	}
	// A fresh handle confirms k1 was evicted from disk and k0, k2, k3
	// survive.
	s2 := mustOpen(t, dir, Options{})
	if _, ok, _ := s2.Get(context.Background(), "search", "k1"); ok {
		t.Fatal("evicted entry served from disk")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok, _ := s2.Get(context.Background(), "search", k); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
}

// TestEvictedOverwriteStaysDead: evicting an entry that was overwritten
// must not bring the overwritten payload back after a restart.
func TestEvictedOverwriteStaysDead(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":"0123456789abcdef"}`)
	one := entrySize(t, "search", "k", payload)
	s := mustOpen(t, dir, Options{BudgetBytes: one})
	mustPut(t, s, "search", "k", `{"v":"0123456789abcdeX"}`)
	mustPut(t, s, "search", "k", string(payload))
	mustPut(t, s, "search", "other", string(payload)) // evicts k
	if st := s.Stats(); st.DiskEvictions != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if got, ok, _ := s2.Get(context.Background(), "search", "k"); ok {
		t.Fatalf("evicted entry came back as %s", got)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened stats: %+v", st)
	}
}

// TestBudgetNeverEvictsJustWritten: an entry bigger than the whole
// budget is kept (evicting it would make every Put a write-then-delete).
func TestBudgetNeverEvictsJustWritten(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":"a long payload that will not fit the tiny budget at all"}`)
	s := mustOpen(t, dir, Options{BudgetBytes: 10})
	if err := s.Put(context.Background(), "search", "big", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(context.Background(), "search", "big"); !ok {
		t.Fatal("oversized entry evicted by its own put")
	}
	if st := s.Stats(); st.Entries != 1 || st.DiskEvictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOpenEnforcesBudget: reopening an unbudgeted directory with a
// budget evicts deterministically, least recently written first.
func TestOpenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":"0123456789abcdef"}`)
	one := entrySize(t, "search", "k0", payload)
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 6; i++ {
		if err := s.Put(context.Background(), "search", fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // the writer is gone: its records are the next Open's to evict

	s2 := mustOpen(t, dir, Options{BudgetBytes: 3 * one})
	st := s2.Stats()
	if st.Entries != 3 || st.Bytes != 3*one || st.DiskEvictions != 3 {
		t.Fatalf("stats after budgeted reopen: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, ok, _ := s2.Get(context.Background(), "search", fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d (oldest) survived the budgeted reopen", i)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok, _ := s2.Get(context.Background(), "search", fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d (newest) lost in the budgeted reopen", i)
		}
	}
	s2.Close()
	if n := liveEntries(t, dir); n != 3 {
		t.Fatalf("evictions did not persist: %d live entries", n)
	}
}

func TestOpenRejectsNegativeBudget(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{BudgetBytes: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestCompactDropsQuarantineAndReconciles covers the non-eviction
// compaction duties: quarantine debris is deleted, each handle's view
// of a shared directory is rebuilt to every live record (each Put only
// counts what its own handle wrote), this handle's dead bytes are
// reclaimed, and another live handle's pack is left untouched.
func TestCompactDropsQuarantineAndReconciles(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	b := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustPut(t, a, "job", fmt.Sprintf("a%d", i), `{"w":"a"}`)
	}
	for i := 0; i < 2; i++ {
		mustPut(t, b, "job", fmt.Sprintf("b%d", i), `{"w":"b"}`)
	}
	// Rot one of A's records and Get it so it lands in quarantine.
	path, off, _ := frameAt(t, a, "job", "a0")
	rewriteFile(t, path, func(d []byte) []byte { d[off+frameHeader+1] ^= 0x40; return d })
	if _, ok, _ := a.Get(context.Background(), "job", "a0"); ok {
		t.Fatal("rotten entry served")
	}
	if q := quarantined(t, dir); len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(q))
	}
	bPack, _, _ := frameAt(t, b, "job", "b0")
	bBytes, err := os.ReadFile(bPack)
	if err != nil {
		t.Fatal(err)
	}

	// Partial views: A holds its own 3 puts minus the quarantined one,
	// B only its own 2; the directory holds 4 live records.
	if st := a.Stats(); st.Entries != 2 {
		t.Fatalf("a.Entries = %d, want 2 pre-compaction", st.Entries)
	}
	if st := b.Stats(); st.Entries != 2 {
		t.Fatalf("b.Entries = %d, want 2 pre-compaction", st.Entries)
	}

	for _, name := range []string{"a", "b"} {
		s := map[string]*Store{"a": a, "b": b}[name]
		cs, err := s.Compact(context.Background())
		if err != nil {
			t.Fatalf("%s.Compact: %v", name, err)
		}
		if st := s.Stats(); st.Entries != 4 || cs.EntriesAfter != 4 {
			t.Fatalf("%s post-compaction: stats %+v, compact %+v (want 4 entries)", name, st, cs)
		}
		if n := liveEntries(t, dir); n != 4 {
			t.Fatalf("after %s.Compact a fresh handle sees %d entries, want 4", name, n)
		}
		if after, _ := os.ReadFile(bPack); name == "a" && !bytes.Equal(after, bBytes) {
			t.Fatal("a's compaction rewrote b's live pack")
		}
	}
	// A's compaction dropped the corpse and the rotten frame; B's found
	// an empty quarantine.
	if q := quarantined(t, dir); len(q) != 0 {
		t.Fatalf("quarantine not emptied: %d files", len(q))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a's old pack survived its compaction")
	}
	// Every entry is readable through either handle after reconciliation.
	for _, k := range []string{"a1", "a2", "b0", "b1"} {
		if _, ok, _ := a.Get(context.Background(), "job", k); !ok {
			t.Fatalf("a lost %s", k)
		}
		if _, ok, _ := b.Get(context.Background(), "job", k); !ok {
			t.Fatalf("b lost %s", k)
		}
	}
	if st := a.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions counter: %+v", st)
	}
	// Both keep writing to packs of their own after compaction.
	mustPut(t, a, "job", "a3", `{"w":"a"}`)
	mustPut(t, b, "job", "b2", `{"w":"b"}`)
	if n := liveEntries(t, dir); n != 6 {
		t.Fatalf("after post-compaction puts a fresh handle sees %d entries, want 6", n)
	}
}

// TestCompactEvictsToBudget: a compaction evicts down to the budget, but
// only among records it may drop — a live handle's records wait until
// that handle is gone.
func TestCompactEvictsToBudget(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":"0123456789abcdef"}`)
	one := entrySize(t, "search", "k0", payload)
	budgeted := mustOpen(t, dir, Options{BudgetBytes: 2 * one})
	// A second, unbudgeted writer floods the directory.
	flooder := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := flooder.Put(context.Background(), "search", fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// A miss makes the budgeted handle index the flooder's pack.
	if _, ok, _ := budgeted.Get(context.Background(), "search", "k0"); !ok {
		t.Fatal("flooder's record not found")
	}
	if st := budgeted.Stats(); st.DiskEvictions != 0 || st.Entries != 5 {
		t.Fatalf("a live handle's records were evicted: %+v", st)
	}
	cs, err := budgeted.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := budgeted.Stats(); cs.Evicted != 0 || st.Entries != 5 {
		t.Fatalf("compaction dropped a live handle's records: stats %+v, compact %+v", st, cs)
	}

	flooder.Close()
	cs, err = budgeted.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := budgeted.Stats()
	if st.Bytes > 2*one || st.Entries != 2 || cs.Evicted != 3 {
		t.Fatalf("post-compaction: stats %+v, compact %+v", st, cs)
	}
	// The flooder's pack was absorbed: one pack, two live records.
	if paths := packFiles(t, dir); len(paths) != 1 {
		t.Fatalf("packs after absorbing the flooder's: %v", paths)
	}
	if n := liveEntries(t, dir); n != 2 {
		t.Fatalf("%d live entries on disk, want 2", n)
	}
	// The survivors are the most recently written.
	for i := 3; i < 5; i++ {
		if _, ok, _ := budgeted.Get(context.Background(), "search", fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
}

// TestCrashMidCompactionRecovery: a compaction writes its fresh pack
// under a temporary name, links it into place, then unlinks the packs
// it replaced and the quarantine's files. This test builds the state a
// crash leaves at each step by hand and proves a budgeted Open recovers
// each to a valid, budget-respecting store.
func TestCrashMidCompactionRecovery(t *testing.T) {
	payload := []byte(`{"v":"0123456789abcdef"}`)
	one := entrySize(t, "search", "k0", payload)
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		for i := 0; i < 6; i++ {
			if err := s.Put(context.Background(), "search", fmt.Sprintf("k%d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
		// Two quarantined corpses from successive corruptions of k5.
		for range 2 {
			path, off, _ := frameAt(t, s, "search", "k5")
			rewriteFile(t, path, func(d []byte) []byte { d[off+frameHeader] ^= 0x08; return d })
			if _, ok, _ := s.Get(context.Background(), "search", "k5"); ok {
				t.Fatal("rot served")
			}
			if err := s.Put(context.Background(), "search", "k5", payload); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		return dir
	}
	// compacted writes the pack a compaction of dir to 3 entries would
	// link: the newest records, copied frame by frame.
	compacted := func(t *testing.T, dir string) []byte {
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		data, err := os.ReadFile(onlyPack(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, k := range []string{"k3", "k4", "k5"} {
			_, off, end := frameAt(t, s, "search", k)
			out = append(out, data[off:end]...)
		}
		return out
	}

	crashPoints := []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"mid-quarantine-clear", func(t *testing.T, dir string) {
			// Compaction deleted one of the two corpses, then died.
			q := quarantined(t, dir)
			if len(q) != 2 {
				t.Fatalf("setup: quarantine has %d files", len(q))
			}
			if err := os.Remove(filepath.Join(dir, quarantineSub, q[0].Name())); err != nil {
				t.Fatal(err)
			}
		}},
		{"fresh-pack-unlinked", func(t *testing.T, dir string) {
			// Died before linking its fresh pack into place.
			tmp := filepath.Join(dir, packsSub, "new"+packExt+tmpMarker+"7")
			data := append(append([]byte(packMagic), packVersion), compacted(t, dir)...)
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"mid-eviction", func(t *testing.T, dir string) {
			// Linked its fresh pack, without the records it evicted, then
			// died before unlinking the old pack that still holds them.
			writePack(t, dir, 9, compacted(t, dir))
		}},
	}
	for _, cp := range crashPoints {
		t.Run(cp.name, func(t *testing.T) {
			dir := build(t)
			cp.crash(t, dir)
			s, err := Open(dir, Options{BudgetBytes: 3 * one})
			if err != nil {
				t.Fatalf("Open after crash: %v", err)
			}
			st := s.Stats()
			if st.Bytes > 3*one || st.Entries != 3 {
				t.Fatalf("recovered store: %+v", st)
			}
			// Every record it indexes is servable, and they are the newest.
			for i := 3; i < 6; i++ {
				if got, ok, _ := s.Get(context.Background(), "search", fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, payload) {
					t.Fatalf("k%d: %s, %v", i, got, ok)
				}
			}
			if matches, _ := filepath.Glob(filepath.Join(dir, packsSub, "*"+tmpMarker+"*")); len(matches) != 0 {
				t.Fatalf("temporary files survived recovery: %v", matches)
			}
			s.Close()
			if n := liveEntries(t, dir); n != 3 {
				t.Fatalf("recovery did not persist: %d live entries", n)
			}
		})
	}
}

func TestParseSize(t *testing.T) {
	good := map[string]int64{
		"0":      0,
		"12345":  12345,
		"64K":    64 << 10,
		"64k":    64 << 10,
		"64KB":   64 << 10,
		"64KiB":  64 << 10,
		" 2M ":   2 << 20,
		"3G":     3 << 30,
		"1T":     1 << 40,
		"512MB":  512 << 20,
		"512mib": 512 << 20,
	}
	for in, want := range good {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "-1", "x", "64X", "M", "1.5G", "99999999999T"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}

// TestCompactUnderTraffic runs compactions while other goroutines put,
// overwrite and read through a budgeted store: every read returns the
// payload last written for its key, or misses once the budget evicted
// it, and a restart sees exactly the records the handle kept.
func TestCompactUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	payload := func(k, v int) string { return fmt.Sprintf(`{"k":%d,"v":%d}`, k, v) }
	one := entrySize(t, "job", "k00", []byte(payload(0, 0)))
	s := mustOpen(t, dir, Options{BudgetBytes: 12 * one})
	var wg sync.WaitGroup
	for w := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				k := (w*7 + i) % 20
				key := fmt.Sprintf("k%02d", k)
				if err := s.Put(context.Background(), "job", key, []byte(payload(k, w))); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(context.Background(), "job", fmt.Sprintf("k%02d", (k+3)%20))
				if err != nil {
					t.Error(err)
					return
				}
				if ok && !strings.HasPrefix(string(got), fmt.Sprintf(`{"k":%d,`, (k+3)%20)) {
					t.Errorf("read of k%02d served %s", (k+3)%20, got)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 10 {
			if _, err := s.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	st := s.Stats()
	if st.Bytes > 12*one {
		t.Fatalf("over budget after traffic: %+v", st)
	}
	s.Close()
	if n := liveEntries(t, dir); n != st.Entries {
		t.Fatalf("restart sees %d entries, the handle kept %d", n, st.Entries)
	}
}

// TestStaleTombstoneSparesNewPack: a live writer's tombstone names a
// position in a pack that a compaction then absorbs and empties. A pack
// created afterwards must not take that pack's sequence number, or the
// tombstone would kill the new record at the same offset.
func TestStaleTombstoneSparesNewPack(t *testing.T) {
	if !lockSupported {
		t.Skip("needs writer locks")
	}
	dir := t.TempDir()
	dead := pos{1, packHeader}
	live := writePack(t, dir, 0, appendTombstone(nil, rawAddr("job", "old"), dead))
	f, err := os.Open(live)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !tryLock(f) {
		t.Fatal("cannot lock the live writer's pack")
	}
	writePack(t, dir, 1, recordFrame("job", "old", envelopeOf(t, "job", "old", `{}`)))

	s := mustOpen(t, dir, Options{})
	if _, err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "job", "new", `{"n":1}`)
	_, off, _ := frameAt(t, s, "job", "new")
	s.Close()
	if off != dead.off {
		t.Fatalf("setup: new record at offset %d, want %d", off, dead.off)
	}
	r := mustOpen(t, dir, Options{})
	if got, ok, _ := r.Get(context.Background(), "job", "new"); !ok || string(got) != `{"n":1}` {
		t.Fatalf("record killed by a stale tombstone: %s, %v", got, ok)
	}
}

// TestTouchIgnoresStaleRecord: a Get that found a record before a
// compaction swapped in a rebuilt index touches it afterwards; the stale
// record must not be linked into the new index's recency list.
func TestTouchIgnoresStaleRecord(t *testing.T) {
	p := &pack{}
	before, after := newIndex(), newIndex()
	stale := &rec{addr: rawAddr("job", "k"), p: p, size: 1}
	before.put(stale)
	after.put(&rec{addr: stale.addr, p: p, size: 1})
	after.touch(stale)
	if n := len(after.oldestFirst()); n != 1 || after.listedBytes != 1 {
		t.Fatalf("stale touch changed the rebuilt index: %d listed, %d bytes", n, after.listedBytes)
	}
}

// TestKillAfterAnotherHandleCompacts: a handle indexed an exited
// writer's records, then another handle compacted them into a fresh
// pack, which sorts after the first handle's own, and exited. The first
// handle's overwrite and evictions must kill the compacted copies, so a
// restart serves the overwrite and keeps the evictions.
func TestKillAfterAnotherHandleCompacts(t *testing.T) {
	if !lockSupported {
		t.Skip("needs writer locks")
	}
	dir := t.TempDir()
	p := mustOpen(t, dir, Options{})
	mustPut(t, p, "job", "k", `{"v":"old"}`)
	mustPut(t, p, "job", "j", `{"v":"j"}`)
	p.Close()

	newK := fmt.Sprintf(`{"v":"new","pad":%q}`, strings.Repeat("x", 200))
	fits := int64(len(envelopeOf(t, "job", "k", `{"v":"old"}`)) + len(envelopeOf(t, "job", "j", `{"v":"j"}`)) +
		len(envelopeOf(t, "job", "first", `{}`)))
	a := mustOpen(t, dir, Options{BudgetBytes: fits})
	mustPut(t, a, "job", "first", `{}`) // a's pack sorts before the compacted one

	c := mustOpen(t, dir, Options{})
	if _, err := c.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The larger overwrite evicts both other records to fit the budget.
	mustPut(t, a, "job", "k", newK)
	for _, h := range []*Store{a, mustOpen(t, dir, Options{})} {
		if got, ok, _ := h.Get(context.Background(), "job", "k"); !ok || string(got) != newK {
			t.Fatalf("k reads %s, %v; want the overwrite", got, ok)
		}
		for _, key := range []string{"j", "first"} {
			if got, ok, _ := h.Get(context.Background(), "job", key); ok {
				t.Fatalf("evicted %s served: %s", key, got)
			}
		}
	}
}

// TestMissReleasesCompactedPack: when another handle compacts an
// exited writer's pack away, a live handle's next miss lets go of the
// old pack — its descriptor is closed, so the disk space is freed — and
// its Gets are served from the compacted copy.
func TestMissReleasesCompactedPack(t *testing.T) {
	if !lockSupported {
		t.Skip("needs writer locks")
	}
	ctx := context.Background()
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	mustPut(t, w, "job", "k", `{"v":"k"}`)
	mustPut(t, w, "job", "j", `{"v":"j"}`)
	w.Close()

	a := mustOpen(t, dir, Options{})
	old := a.idx.get(rawAddr("job", "k")).p
	b := mustOpen(t, dir, Options{})
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	b.Close()

	if got, ok, err := a.Get(ctx, "job", "absent"); ok || err != nil {
		t.Fatalf("absent key: %s, %v, %v", got, ok, err)
	}
	if a.open[old.seq] != nil {
		t.Fatal("the compacted pack is still open after a miss")
	}
	if _, err := old.f.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("the compacted pack's descriptor is not closed: %v", err)
	}
	for _, key := range []string{"k", "j"} {
		if got, ok, _ := a.Get(ctx, "job", key); !ok || string(got) != fmt.Sprintf(`{"v":%q}`, key) {
			t.Fatalf("%s reads %s, %v after the compaction", key, got, ok)
		}
		r := a.idx.get(rawAddr("job", key))
		if r == nil || r.p == old || a.open[r.p.seq] != r.p {
			t.Fatalf("%s is not served from the compacted pack", key)
		}
	}
}

// TestClosedStore: a closed Store holds no files, misses every Get,
// and refuses writes and compaction; its pack is then another handle's
// to evict.
func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "job", "k", `{}`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got, ok, _ := s.Get(context.Background(), "job", "k"); ok {
		t.Fatalf("closed store served %s", got)
	}
	if err := s.Put(context.Background(), "job", "k2", []byte(`{}`)); err == nil {
		t.Fatal("closed store accepted a Put")
	}
	if _, err := s.Compact(context.Background()); err == nil {
		t.Fatal("closed store compacted")
	}
	if n := len(packFiles(t, dir)); n != 1 {
		t.Fatalf("%d packs after Close, want 1", n)
	}
	if lockSupported {
		r := mustOpen(t, dir, Options{BudgetBytes: 1})
		if st := r.Stats(); st.Entries != 0 || st.DiskEvictions != 1 {
			t.Fatalf("the closed store's record was not evictable: %+v", st)
		}
	}
}

// TestOverwritesDuringCompaction: one handle overwrites an exited
// writer's records while other handles compact them into fresh packs,
// which sort after the first handle's. Every overwrite must survive a
// restart.
func TestOverwritesDuringCompaction(t *testing.T) {
	if !lockSupported {
		t.Skip("needs writer locks")
	}
	dir := t.TempDir()
	const n = 60
	p := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		mustPut(t, p, "job", fmt.Sprint(i), `{"v":"old"}`)
	}
	p.Close()
	a := mustOpen(t, dir, Options{})
	mustPut(t, a, "job", "first", `{}`)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			c, err := Open(dir, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Compact(context.Background()); err != nil {
				t.Error(err)
			}
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		mustPut(t, a, "job", fmt.Sprint(i), `{"v":"new"}`)
	}
	wg.Wait()
	r := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		if got, ok, _ := r.Get(context.Background(), "job", fmt.Sprint(i)); !ok || string(got) != `{"v":"new"}` {
			t.Fatalf("record %d reads %s, %v after a restart; want the overwrite", i, got, ok)
		}
	}
}
