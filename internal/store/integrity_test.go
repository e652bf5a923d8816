package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIdentityMismatchQuarantinesEntry: a record whose frame verifies
// but whose envelope belongs to another key (moved by hand to another
// key's address) is quarantined like any other corruption, with Entries
// decremented — leaving it in place would make every future Get re-read
// and re-miss it forever. A tombstone keeps it quarantined across a
// restart.
func TestIdentityMismatchQuarantinesEntry(t *testing.T) {
	dir := t.TempDir()
	writePack(t, dir, 0, recordFrame("search", "imposter", envelopeOf(t, "search", "honest", `{"n":1}`)))
	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("Open indexed %d records, want the misplaced one", st.Entries)
	}
	if _, ok, err := s.Get(context.Background(), "search", "imposter"); ok || err != nil {
		t.Fatalf("misplaced entry served: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0 after the only entry was quarantined", st.Entries)
	}
	if q := quarantined(t, dir); len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(q))
	}
	// The second Get must be a plain miss, not a second quarantine.
	if _, ok, _ := s.Get(context.Background(), "search", "imposter"); ok {
		t.Fatal("second Get served the quarantined entry")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Misses != 2 {
		t.Fatalf("after second Get: %+v", st)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if _, ok, _ := s2.Get(context.Background(), "search", "imposter"); ok {
		t.Fatal("misplaced entry served after a restart")
	}
	if st := s2.Stats(); st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("after restart: %+v", st)
	}
}

// TestGetRawQuarantinesMisplacedEntry: the peer-serving read applies
// the same identity check, so a replica never ships a misplaced entry.
func TestGetRawQuarantinesMisplacedEntry(t *testing.T) {
	dir := t.TempDir()
	writePack(t, dir, 0, recordFrame("search", "imposter", envelopeOf(t, "search", "honest", `{"n":1}`)))
	s := mustOpen(t, dir, Options{})
	if _, ok, err := s.GetRaw("search", Addr("search", "imposter")); ok || err != nil {
		t.Fatalf("misplaced entry served raw: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// A record of the right identity but under another kind's route is
	// no hit either.
	mustPut(t, s, "job", "k", `{"n":2}`)
	if _, ok, _ := s.GetRaw("search", Addr("job", "k")); ok {
		t.Fatal("record served under another kind")
	}
}

// TestGetRawIsTheEnvelope: GetRaw serves exactly the bytes
// encodeEnvelope builds for the entry — the peer wire form.
func TestGetRawIsTheEnvelope(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	mustPut(t, s, "search", "fp", `{"found": true}`)
	raw, ok, err := s.GetRaw("search", Addr("search", "fp"))
	if err != nil || !ok {
		t.Fatalf("GetRaw = %v, %v", ok, err)
	}
	if want := envelopeOf(t, "search", "fp", `{"found":true}`); !bytes.Equal(raw, want) {
		t.Fatalf("GetRaw = %s, want %s", raw, want)
	}
	for _, bad := range []string{"", "xyz", strings.ToUpper(Addr("search", "fp"))} {
		if _, _, err := s.GetRaw("search", bad); err == nil {
			t.Fatalf("address %q accepted", bad)
		}
	}
}

// TestEscapedKeysRoundTrip: keys whose JSON form needs escapes
// round-trip through a restart.
func TestEscapedKeysRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"plain", `quote"d`, `back\slash`, "<tag>&amp", "tab\there", "ünïcødé", "line\nbreak\u2028"}
	s := mustOpen(t, dir, Options{})
	for i, k := range keys {
		mustPut(t, s, "search", k, fmt.Sprintf(`{"i":%d}`, i))
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	for i, k := range keys {
		if got, ok, err := s2.Get(context.Background(), "search", k); !ok || err != nil || string(got) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %q: %s, %v, %v", k, got, ok, err)
		}
	}
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestQuarantineNameCollision: two successive corruptions of one entry
// produce two corpses, named after where each was found, and both are
// kept — nothing is overwritten.
func TestQuarantineNameCollision(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	var rots [][]byte
	for i := range 2 {
		mustPut(t, s, "search", "k", `{"n":1}`)
		path, off, end := frameAt(t, s, "search", "k")
		rewriteFile(t, path, func(d []byte) []byte {
			d[off+frameHeader+2] ^= 0x01
			rots = append(rots, bytes.Clone(d[off:end]))
			return d
		})
		if _, ok, _ := s.Get(context.Background(), "search", "k"); ok {
			t.Fatalf("corruption %d served", i)
		}
	}
	q := quarantined(t, dir)
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d files, want both corpses", len(q))
	}
	// Both bodies survived — nothing was overwritten.
	bodies := map[string]bool{}
	base := filepath.Base(onlyPack(t, dir))
	for _, d := range q {
		if !strings.HasPrefix(d.Name(), base+"@") {
			t.Fatalf("unexpected quarantine name %q (want prefix %q)", d.Name(), base+"@")
		}
		b, err := os.ReadFile(filepath.Join(dir, quarantineSub, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		bodies[string(b)] = true
	}
	if !bodies[string(rots[0])] || !bodies[string(rots[1])] {
		t.Fatal("a corpse was overwritten")
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("Quarantined = %d, want 2", st.Quarantined)
	}
}

// TestUnknownPackVersion: a pack whose header this version cannot read
// (a future version's, or a damaged header) is moved whole into
// quarantine when its writer is gone, and left alone while a live
// writer holds it.
func TestUnknownPackVersion(t *testing.T) {
	dir := t.TempDir()
	path := writePack(t, dir, 0, recordFrame("job", "k", envelopeOf(t, "job", "k", `{}`)))
	rewriteFile(t, path, func(d []byte) []byte { d[packHeader-1] = packVersion + 1; return d })

	if lockSupported {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !tryLock(f) {
			t.Fatal("cannot lock the pack")
		}
		live := mustOpen(t, dir, Options{})
		if st := live.Stats(); st.Entries != 0 || st.Quarantined != 0 {
			t.Fatalf("live future-version pack: %+v", st)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("live writer's pack moved: %v", err)
		}
		f.Close()
	}

	s := mustOpen(t, dir, Options{})
	if _, ok, _ := s.Get(context.Background(), "job", "k"); ok {
		t.Fatal("record of an unreadable pack served")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("unreadable pack still in place")
	}
	if q := quarantined(t, dir); len(q) != 1 || q[0].Name() != filepath.Base(path) {
		t.Fatalf("quarantine holds %v, want the pack", q)
	}
}

// FuzzPackOpen writes entries, damages the pack — cuts it, flips bits
// in it, or appends arbitrary bytes — and reopens it. Open must not
// panic or fail, no entry may be served with anything but its own
// payload, and every entry whose frame lies wholly before the first
// damaged byte must still be served; a compaction afterwards keeps all
// of that.
func FuzzPackOpen(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(200), []byte{})
	f.Add(uint8(4), uint8(1), uint16(150), []byte{0x80})
	f.Add(uint8(2), uint8(2), uint16(0), []byte{0xF5, 0xA7, 0x3C, 'R', 0, 0, 0, 0})
	f.Add(uint8(5), uint8(1), uint16(3), []byte{0xFF, 0x01})
	f.Fuzz(func(t *testing.T, n, op uint8, at uint16, junk []byte) {
		dir := t.TempDir()
		entries := int(n%8) + 1
		payload := func(i int) string { return fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", i*7)) }
		s := mustOpen(t, dir, Options{})
		ends := make([]int64, entries)
		for i := range entries {
			mustPut(t, s, "job", fmt.Sprintf("k%d", i), payload(i))
			_, _, ends[i] = frameAt(t, s, "job", fmt.Sprintf("k%d", i))
		}
		s.Close()
		path := onlyPack(t, dir)
		var damage int64
		rewriteFile(t, path, func(d []byte) []byte {
			switch op % 3 {
			case 0: // cut
				damage = int64(at) % int64(len(d)+1)
				return d[:damage]
			case 1: // flip bits in consecutive bytes
				damage = int64(at) % int64(len(d))
				flips := append([]byte{0x01}, junk...)
				for i, x := range flips {
					if j := int(damage) + i; j < len(d) && x != 0 {
						d[j] ^= x
					}
				}
				return d
			default: // append
				damage = int64(len(d))
				return append(d, junk...)
			}
		})
		check := func(s *Store, when string) {
			t.Helper()
			for i := range entries {
				key := fmt.Sprintf("k%d", i)
				got, ok, err := s.Get(context.Background(), "job", key)
				if err != nil {
					t.Fatalf("%s: Get %s: %v", when, key, err)
				}
				if ok && string(got) != payload(i) {
					t.Fatalf("%s: %s served %s", when, key, got)
				}
				if !ok && ends[i] <= damage {
					t.Fatalf("%s: %s (frame ends at %d, damage at %d) lost", when, key, ends[i], damage)
				}
				if raw, ok, _ := s.GetRaw("job", Addr("job", key)); ok && !bytes.Equal(raw, envelopeOf(t, "job", key, payload(i))) {
					t.Fatalf("%s: GetRaw %s served %s", when, key, raw)
				}
			}
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open of a damaged pack: %v", err)
		}
		defer s2.Close()
		check(s2, "reopened")
		if _, err := s2.Compact(context.Background()); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		check(s2, "compacted")
		s2.Close()
		s3 := mustOpen(t, dir, Options{})
		check(s3, "reopened after compaction")
	})
}
