package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, kind, key, payload string) {
	t.Helper()
	if err := s.Put(context.Background(), kind, key, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// packFiles returns the pack files of dir, in sequence order.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, packsSub, "*"+packExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlyPack returns dir's single pack file.
func onlyPack(t *testing.T, dir string) string {
	t.Helper()
	paths := packFiles(t, dir)
	if len(paths) != 1 {
		t.Fatalf("want one pack, found %v", paths)
	}
	return paths[0]
}

// frameAt locates the record s indexes for (kind, key): its pack file
// and the byte range [off, end) of its frame.
func frameAt(t *testing.T, s *Store, kind, key string) (path string, off, end int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.idx.get(rawAddr(kind, key))
	if r == nil {
		t.Fatalf("%s/%s is not indexed", kind, key)
	}
	return r.p.path, r.off, r.off + frameHeader + r.size
}

// rewriteFile applies edit to the bytes of path.
func rewriteFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writePack writes a pack holding frames under sequence number seq, as a
// writer that is gone would have left it.
func writePack(t *testing.T, dir string, seq uint64, frames []byte) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, packsSub), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, packsSub, packName(seq))
	data := append(append([]byte(packMagic), packVersion), frames...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recordFrame frames body as the record of (kind, key).
func recordFrame(kind, key string, body []byte) []byte {
	a := rawAddr(kind, key)
	return appendFrame(nil, typeRecord, &a, body)
}

func envelopeOf(t *testing.T, kind, key, payload string) []byte {
	t.Helper()
	data, _, err := encodeEnvelope(kind, key, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func quarantined(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	q, err := os.ReadDir(filepath.Join(dir, quarantineSub))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	payload := []byte(`{"found": true, "n": 3}`)
	if err := s.Put(context.Background(), "search", "fp-1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(context.Background(), "search", "fp-1")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", got, ok, err)
	}
	// Payloads are compacted to canonical bytes.
	if want := `{"found":true,"n":3}`; string(got) != want {
		t.Fatalf("payload = %s, want %s", got, want)
	}
	if _, ok, _ := s.Get(context.Background(), "search", "fp-2"); ok {
		t.Fatal("absent key reported present")
	}
	if _, ok, _ := s.Get(context.Background(), "census-row", "fp-1"); ok {
		t.Fatal("kinds must not share a namespace")
	}
	// A caller mutating a returned payload cannot change a later read.
	got[0] = 'X'
	again, ok, _ := s.Get(context.Background(), "search", "fp-1")
	if !ok || string(again) != `{"found":true,"n":3}` {
		t.Fatalf("caller mutation reached a later read: %s", again)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.DiskHits != 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put(context.Background(), "search", "k", []byte(`not json`)); err == nil {
		t.Fatal("non-JSON payload accepted")
	}
	if err := s.Put(context.Background(), "Bad/Kind", "k", []byte(`1`)); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, _, err := s.Get(context.Background(), "", "k"); err == nil {
		t.Fatal("empty kind accepted")
	}
}

func TestPutIdempotentNoop(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	// Logically equal but differently formatted payloads must coalesce
	// to one canonical entry and never write again.
	mustPut(t, s, "job", "id", `{"a": 1, "b": 2}`)
	path := onlyPack(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "job", "id", "{\"a\":1,\n\"b\":2}")
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatalf("idempotent put changed the pack: %d bytes, then %d", len(before), len(after))
	}
	st := s.Stats()
	if st.Puts != 1 || st.PutNoops != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A changed payload DOES write.
	mustPut(t, s, "job", "id", `{"a":1,"b":3}`)
	if st := s.Stats(); st.Puts != 2 || st.Entries != 1 {
		t.Fatalf("stats after overwrite: %+v", st)
	}
	// And a restart serves the new payload, not the overwritten one.
	s2 := mustOpen(t, dir, Options{})
	if got, ok, _ := s2.Get(context.Background(), "job", "id"); !ok || string(got) != `{"a":1,"b":3}` {
		t.Fatalf("after reopen: %s, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened stats: %+v", st)
	}
}

// TestKillMidWrite simulates a writer killed in the middle of an append
// (a torn frame at the end of its pack) and in the middle of creating a
// pack (a temporary file never linked into place): the next Open must
// cut the torn frame off, delete the temporary files, and keep serving
// every entry the writer had acknowledged.
func TestKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "search", "fp", `{"v":1}`)
	s.Close()
	path := onlyPack(t, dir)
	info, _ := os.Stat(path)
	acked := info.Size()

	// The first half of a second entry's frame...
	torn := recordFrame("search", "fp2", envelopeOf(t, "search", "fp2", `{"v":2}`))
	rewriteFile(t, path, func(d []byte) []byte { return append(d, torn[:len(torn)/2]...) })
	// ...and the temporary files of packs that were never linked.
	for i, junk := range []string{"", "rcpack", "garbage"} {
		tmp := filepath.Join(dir, packsSub, fmt.Sprintf("new%s%s%d", packExt, tmpMarker, i))
		if err := os.WriteFile(tmp, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{})
	got, ok, err := s2.Get(context.Background(), "search", "fp")
	if err != nil || !ok || string(got) != `{"v":1}` {
		t.Fatalf("entry lost after crash recovery: %s, %v, %v", got, ok, err)
	}
	if _, ok, _ := s2.Get(context.Background(), "search", "fp2"); ok {
		t.Fatal("torn entry served")
	}
	if st := s2.Stats(); st.Entries != 1 || st.Quarantined != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	if info, _ := os.Stat(path); info.Size() != acked {
		t.Fatalf("torn tail kept: pack is %d bytes, want %d", info.Size(), acked)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, packsSub, "*"+tmpMarker+"*")); len(matches) != 0 {
		t.Fatalf("temporary files survived recovery: %v", matches)
	}
	if n := len(packFiles(t, dir)); n != 1 {
		t.Fatalf("recovery left %d packs, want the one", n)
	}
}

// TestTornTailEveryOffset cuts the last frame of a pack at every byte
// and reopens: the cut frame is never served, the one before it always
// is, and the pack is truncated back to the last whole frame without
// quarantining anything.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	mustPut(t, s, "search", "first", `{"v":1}`)
	mustPut(t, s, "search", "second", `{"v":2}`)
	_, start, end := frameAt(t, s, "search", "second")
	s.Close()
	whole, err := os.ReadFile(onlyPack(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for cut := start + 1; cut < end; cut++ {
		dir := t.TempDir()
		path := writePack(t, dir, 0, whole[packHeader:cut])
		s := mustOpen(t, dir, Options{})
		if got, ok, _ := s.Get(context.Background(), "search", "first"); !ok || string(got) != `{"v":1}` {
			t.Fatalf("cut at %d: whole frame before the cut lost: %s, %v", cut, got, ok)
		}
		if _, ok, _ := s.Get(context.Background(), "search", "second"); ok {
			t.Fatalf("cut at %d: torn frame served", cut)
		}
		if st := s.Stats(); st.Quarantined != 0 || st.Entries != 1 {
			t.Fatalf("cut at %d: stats %+v", cut, st)
		}
		if info, _ := os.Stat(path); info.Size() != start {
			t.Fatalf("cut at %d: pack is %d bytes after recovery, want %d", cut, info.Size(), start)
		}
		s.Close()
	}
}

// TestBitFlipNeverServed flips a bit in each byte of a frame in the
// middle of a pack: the damaged frame is quarantined and never served,
// and the frames on both sides of it still are.
func TestBitFlipNeverServed(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	for i, k := range []string{"before", "flipped", "after"} {
		mustPut(t, s, "job", k, fmt.Sprintf(`{"n":%d}`, i))
	}
	_, start, end := frameAt(t, s, "job", "flipped")
	s.Close()
	whole, err := os.ReadFile(onlyPack(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for at := start; at < end; at++ {
		bit := at*8 + at%8
		dir := t.TempDir()
		data := bytes.Clone(whole)
		data[bit/8] ^= 1 << (bit % 8)
		writePack(t, dir, 0, data[packHeader:])
		s := mustOpen(t, dir, Options{})
		if _, ok, _ := s.Get(context.Background(), "job", "flipped"); ok {
			t.Fatalf("bit %d: damaged frame served", bit)
		}
		for i, k := range []string{"before", "after"} {
			if got, ok, _ := s.Get(context.Background(), "job", k); !ok || string(got) != fmt.Sprintf(`{"n":%d}`, 2*i) {
				t.Fatalf("bit %d: intact frame %s lost: %s, %v", bit, k, got, ok)
			}
		}
		if st := s.Stats(); st.Quarantined != 1 {
			t.Fatalf("bit %d: stats %+v", bit, st)
		}
		s.Close()
	}
}

// TestCorruptEntryQuarantineOnOpen covers every way the last record of
// a pack can go bad: cut short (a torn tail: truncated), its payload
// rotted (its CRC fails: quarantined and truncated at Open), or a frame
// that verifies holding an envelope whose payload does not match its
// checksum, of an alien version, or no envelope at all (quarantined by
// the first Get). None is ever served, and a
// re-put heals the entry.
func TestCorruptEntryQuarantineOnOpen(t *testing.T) {
	reframe := func(t *testing.T, edit func([]byte) []byte) func([]byte, int64) []byte {
		return func(d []byte, off int64) []byte {
			body := edit(bytes.Clone(d[off+frameHeader:]))
			return append(d[:off:off], recordFrame("job", "bad", body)...)
		}
	}
	corruptions := []struct {
		name    string
		corrupt func(data []byte, off int64) []byte
		// quarantined is how many corpses the corruption leaves.
		quarantined int64
	}{
		{"truncated", func(d []byte, off int64) []byte { return d[:off+(int64(len(d))-off)/2] }, 0},
		{"payload-flip", func(d []byte, off int64) []byte {
			out := bytes.Replace(d, []byte(`"payload":{"v":1`), []byte(`"payload":{"v":9`), 1)
			if bytes.Equal(out, d) {
				t.Fatal("corruption did not apply")
			}
			return out
		}, 1},
		{"checksum-mismatch", reframe(t, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"payload":{"v":1`), []byte(`"payload":{"v":9`), 1)
		}), 1},
		{"future-version", reframe(t, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"version":1`), []byte(`"version":99`), 1)
		}), 1},
		{"not-json", reframe(t, func([]byte) []byte { return []byte("<html>not a store entry</html>") }), 1},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			mustPut(t, s, "job", "good", `{"keep":true}`)
			mustPut(t, s, "job", "bad", `{"v":1}`)
			path, off, _ := frameAt(t, s, "job", "bad")
			s.Close()
			rewriteFile(t, path, func(d []byte) []byte { return tc.corrupt(d, off) })

			s2 := mustOpen(t, dir, Options{})
			if _, ok, err := s2.Get(context.Background(), "job", "bad"); ok || err != nil {
				t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
			}
			if got, ok, _ := s2.Get(context.Background(), "job", "good"); !ok || string(got) != `{"keep":true}` {
				t.Fatalf("healthy sibling entry lost: %s, %v", got, ok)
			}
			if st := s2.Stats(); st.Quarantined != tc.quarantined || st.Entries != 1 {
				t.Fatalf("stats: %+v", st)
			}
			// The corpse is preserved for inspection, not deleted.
			if q := quarantined(t, dir); int64(len(q)) != tc.quarantined {
				t.Fatalf("quarantine holds %d files, want %d", len(q), tc.quarantined)
			}
			// A restart neither serves nor re-quarantines it.
			s2.Close()
			s3 := mustOpen(t, dir, Options{})
			if _, ok, _ := s3.Get(context.Background(), "job", "bad"); ok {
				t.Fatal("corrupt entry served after a restart")
			}
			if st := s3.Stats(); st.Quarantined != 0 || st.Entries != 1 {
				t.Fatalf("stats after restart: %+v", st)
			}
			// A healing re-put restores the entry.
			mustPut(t, s3, "job", "bad", `{"v":1}`)
			if got, ok, _ := s3.Get(context.Background(), "job", "bad"); !ok || string(got) != `{"v":1}` {
				t.Fatalf("re-put did not heal: %s, %v", got, ok)
			}
		})
	}
}

// TestCorruptEntryQuarantineOnGet covers rot that happens after Open:
// Get must quarantine and report a miss rather than fail, and the
// damage stays contained across a restart.
func TestCorruptEntryQuarantineOnGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "search", "fp", `{"v":1}`)
	mustPut(t, s, "search", "next", `{"v":2}`)
	path, off, _ := frameAt(t, s, "search", "fp")
	rewriteFile(t, path, func(d []byte) []byte { d[off+frameHeader+3] ^= 0x20; return d })
	if _, ok, err := s.Get(context.Background(), "search", "fp"); ok || err != nil {
		t.Fatalf("rotten entry served: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if _, ok, _ := s2.Get(context.Background(), "search", "fp"); ok {
		t.Fatal("rotten entry served after a restart")
	}
	if got, ok, _ := s2.Get(context.Background(), "search", "next"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("entry after the rot lost: %s, %v", got, ok)
	}
	if st := s2.Stats(); st.Quarantined != 0 || len(quarantined(t, dir)) != 1 {
		t.Fatalf("rot quarantined twice: %+v", st)
	}
}

// TestConcurrentOpenSharedDir opens the same directory from two
// goroutines (as rcserve and rcatlas may) and hammers both handles
// concurrently; every committed write must be readable through either.
func TestConcurrentOpenSharedDir(t *testing.T) {
	dir := t.TempDir()
	var (
		stores [2]*Store
		wg     sync.WaitGroup
		errs   = make([]error, 2)
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stores[i], errs[i] = Open(dir, Options{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent open %d: %v", i, err)
		}
		t.Cleanup(func() { stores[i].Close() })
	}
	const perStore = 25
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perStore; k++ {
				key := fmt.Sprintf("key-%d-%d", i, k)
				if err := s.Put(context.Background(), "job", key, []byte(fmt.Sprintf(`{"n":%d}`, k))); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := s.Get(context.Background(), "job", key); !ok || err != nil {
					t.Errorf("read own write %s: ok=%v err=%v", key, ok, err)
				}
			}
		}()
	}
	wg.Wait()
	// Cross-read: everything either handle wrote is visible to the other.
	for i := 0; i < 2; i++ {
		other := stores[1-i]
		for k := 0; k < perStore; k++ {
			key := fmt.Sprintf("key-%d-%d", i, k)
			got, ok, err := other.Get(context.Background(), "job", key)
			if !ok || err != nil || string(got) != fmt.Sprintf(`{"n":%d}`, k) {
				t.Fatalf("cross-read %s: %s, %v, %v", key, got, ok, err)
			}
		}
	}
	// Each handle appended to a pack of its own.
	if n := len(packFiles(t, dir)); n != 2 {
		t.Fatalf("%d packs, want one per writer", n)
	}
}

// TestLivePackNotRepaired: a pack whose writer is still open may end in
// a frame being appended right now, so another handle's Open serves its
// whole frames and leaves the tail alone.
func TestLivePackNotRepaired(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	mustPut(t, w, "job", "done", `{"n":1}`)
	path := onlyPack(t, dir)
	half := recordFrame("job", "pending", envelopeOf(t, "job", "pending", `{"n":2}`))
	rewriteFile(t, path, func(d []byte) []byte { return append(d, half[:20]...) })
	before, _ := os.Stat(path)

	r := mustOpen(t, dir, Options{})
	if got, ok, _ := r.Get(context.Background(), "job", "done"); !ok || string(got) != `{"n":1}` {
		t.Fatalf("live writer's entry not served: %s, %v", got, ok)
	}
	if after, _ := os.Stat(path); after.Size() != before.Size() {
		t.Fatalf("another handle truncated a live writer's pack: %d → %d bytes", before.Size(), after.Size())
	}
	if st := r.Stats(); st.Quarantined != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOpenWritesNothing: a Store creates its pack on its first write, so
// opening, reading and closing leave the directory as they found it.
func TestOpenWritesNothing(t *testing.T) {
	dir := t.TempDir()
	for range 3 {
		s := mustOpen(t, dir, Options{})
		if _, ok, _ := s.Get(context.Background(), "job", "absent"); ok {
			t.Fatal("empty store served an entry")
		}
		s.Close()
	}
	if paths := packFiles(t, dir); len(paths) != 0 {
		t.Fatalf("read-only opens left packs: %v", paths)
	}
	w := mustOpen(t, dir, Options{})
	mustPut(t, w, "job", "k", `{}`)
	w.Close()
	r := mustOpen(t, dir, Options{})
	if _, ok, _ := r.Get(context.Background(), "job", "k"); !ok {
		t.Fatal("entry lost")
	}
	r.Close()
	if paths := packFiles(t, dir); len(paths) != 1 {
		t.Fatalf("want the writer's pack only, found %v", paths)
	}
}

// TestEnvelopeIdentity checks the defense against serving a record
// whose address matches but whose recorded identity does not (e.g. a
// frame copied by hand between stores, or an address collision).
func TestEnvelopeIdentity(t *testing.T) {
	dir := t.TempDir()
	writePack(t, dir, 0, recordFrame("search", "other", envelopeOf(t, "search", "fp", `{"v":1}`)))
	s := mustOpen(t, dir, Options{})
	if _, ok, _ := s.Get(context.Background(), "search", "other"); ok {
		t.Fatal("entry with mismatched identity served")
	}
	if _, ok, _ := s.Get(context.Background(), "search", "fp"); ok {
		t.Fatal("entry served at an address it was never written to")
	}
}

// TestStoreReopenPreservesEntries is the restart-survival core: a fresh
// Store on the same directory serves every result the old one wrote.
func TestStoreReopenPreservesEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	var keys []string
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("fp-%02d", i)
		keys = append(keys, key)
		mustPut(t, s, "census-row", key, fmt.Sprintf(`{"row":%d}`, i))
	}
	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 20 {
		t.Fatalf("reopened store sees %d entries, want 20", st.Entries)
	}
	for i, key := range keys {
		got, ok, err := s2.Get(context.Background(), "census-row", key)
		if !ok || err != nil || string(got) != fmt.Sprintf(`{"row":%d}`, i) {
			t.Fatalf("entry %s lost across reopen: %s, %v, %v", key, got, ok, err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	// A file where the store root should be.
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("file-as-root accepted")
	}
}

// TestEnvelopeOnDiskShape pins the pack format: a header, then one frame
// per entry — sync, type, length, SHA-256(kind, 0, key), CRC-32C — whose
// body is exactly the envelope encodeEnvelope builds and GetRaw serves.
func TestEnvelopeOnDiskShape(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "job", "the-key", `{"x":1}`)
	path := onlyPack(t, dir)
	if want := filepath.Join(dir, "packs", "0000000000000000.pack"); path != want {
		t.Fatalf("unexpected layout: %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != "rcpack\x00\x01" {
		t.Fatalf("pack header %q", data[:8])
	}
	fr := data[8:]
	size := binary.LittleEndian.Uint32(fr[4:8])
	if !bytes.Equal(fr[:4], []byte{0xF5, 0xA7, 0x3C, 'R'}) || int(size) != len(fr)-44 {
		t.Fatalf("frame header % x", fr[:8])
	}
	if want := sha256.Sum256([]byte("job\x00the-key")); !bytes.Equal(fr[8:40], want[:]) {
		t.Fatalf("frame address % x, want % x", fr[8:40], want)
	}
	body := fr[44:]
	crc := crc32.Update(crc32.Checksum(fr[:40], crc32.MakeTable(crc32.Castagnoli)), crc32.MakeTable(crc32.Castagnoli), body)
	if binary.LittleEndian.Uint32(fr[40:44]) != crc {
		t.Fatal("frame CRC does not cover its header and body")
	}
	if want := envelopeOf(t, "job", "the-key", `{"x":1}`); !bytes.Equal(body, want) {
		t.Fatalf("frame body %s, want %s", body, want)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Version != Version || env.Kind != "job" || env.Key != "the-key" ||
		!strings.HasPrefix(env.Checksum, "sha256:") || string(env.Payload) != `{"x":1}` {
		t.Fatalf("envelope: %+v", env)
	}
	raw, ok, err := s.GetRaw("job", Addr("job", "the-key"))
	if err != nil || !ok || !bytes.Equal(raw, body) {
		t.Fatalf("GetRaw = %s, %v, %v; want the frame body", raw, ok, err)
	}
}

// TestOverwriteAcrossPacks: a handle that overwrites a record another
// writer's pack holds kills that record, so a restart serves the
// overwrite even though the other pack sorts later.
func TestOverwriteAcrossPacks(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	mustPut(t, a, "job", "first", `{}`) // a's pack sorts first
	b := mustOpen(t, dir, Options{})
	mustPut(t, b, "job", "k", `{"v":"old"}`)
	if _, ok, _ := a.Get(context.Background(), "job", "k"); !ok {
		t.Fatal("a does not see b's record")
	}
	mustPut(t, a, "job", "k", `{"v":"new"}`)
	r := mustOpen(t, dir, Options{})
	if got, ok, _ := r.Get(context.Background(), "job", "k"); !ok || string(got) != `{"v":"new"}` {
		t.Fatalf("after the overwrite a fresh handle reads %s, %v", got, ok)
	}
}

// TestMissKeepsPackOrder: records a miss finds in another writer's new
// tail take their place in pack order, so a handle's view of an address
// matches what a fresh Open would index.
func TestMissKeepsPackOrder(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	mustPut(t, a, "job", "first", `{}`) // a's pack sorts first
	b := mustOpen(t, dir, Options{})
	mustPut(t, b, "job", "k", `{"v":"b"}`)
	r := mustOpen(t, dir, Options{})
	mustPut(t, a, "job", "k", `{"v":"a"}`) // unaware of b's record
	if _, ok, _ := r.Get(context.Background(), "job", "absent"); ok {
		t.Fatal("absent key served")
	}
	fresh := mustOpen(t, dir, Options{})
	want, _, _ := fresh.Get(context.Background(), "job", "k")
	if got, ok, _ := r.Get(context.Background(), "job", "k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("after a miss re-read the packs: %s, %v; a fresh handle reads %s", got, ok, want)
	}
}

// TestFirstWriteSurvivesDebrisSweeps: Open and Compact delete the
// temporary packs whose lock they can take, and a new pack's temporary
// file is unlocked for a moment after its creation. A sweep in that
// moment must not fail the write that creates the pack.
func TestFirstWriteSurvivesDebrisSweeps(t *testing.T) {
	dir := t.TempDir()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tmps, _ := filepath.Glob(filepath.Join(dir, packsSub, "*"+tmpMarker+"*"))
			for _, path := range tmps {
				removeDebris(path)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 100; i++ {
		s := mustOpen(t, dir, Options{})
		mustPut(t, s, "job", fmt.Sprint(i), `{}`)
		s.Close()
	}
}
