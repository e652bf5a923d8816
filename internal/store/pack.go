package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A pack is one append-only file of frames:
//
//	header  packMagic (7 bytes) + packVersion (1 byte)
//	frame   sync (3 bytes) + type (1) + length (uint32 LE) +
//	        address (32) + CRC-32C (uint32 LE) + body (length bytes)
//
// The CRC covers the frame's first 40 bytes (sync, type, length,
// address) and its body. A record frame's body is the entry's envelope,
// byte for byte what encodeEnvelope produced, and its address is
// SHA-256(kind, 0, key). A tombstone frame's body is the position it
// kills — the target pack's sequence number and the frame's offset, two
// uint64 LE — and its address is the killed record's. Frames of any
// other type are skipped, so a newer writer can add kinds.
//
// The sync bytes begin with 0xF5, which never occurs in UTF-8, so it
// never occurs in an envelope: after a damaged frame the scan looks for
// the next sync whose frame verifies and carries on from there.
const (
	packMagic   = "rcpack\x00"
	packVersion = 1
	packHeader  = 8 // packMagic and packVersion

	frameHeader = 44
	crcAt       = 40

	typeRecord    byte = 'R'
	typeTombstone byte = 'T'
	tombstoneBody      = 16

	packsSub = "packs"
	packExt  = ".pack"
)

var (
	frameSync  = []byte{0xF5, 0xA7, 0x3C}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// pos names a frame: its pack's sequence number and its offset.
type pos struct {
	seq uint64
	off int64
}

// pack is an open pack file. Its fields are guarded by the Store's mu,
// except f, which is set once and read without it.
type pack struct {
	seq  uint64
	path string
	f    *os.File
	// own marks the Store's writing pack; held marks a pack another
	// live handle was appending to when this Store last looked. Records
	// in held packs are served but never evicted or rewritten.
	own, held bool
	// end is the offset up to which this Store has written (own) or
	// indexed (others) the pack.
	end int64
}

// after orders positions: a later pack, or later in the same pack.
func (a pos) after(b pos) bool {
	return a.seq > b.seq || (a.seq == b.seq && a.off > b.off)
}

func packName(seq uint64) string { return fmt.Sprintf("%016x%s", seq, packExt) }

// parsePackName returns the sequence number of a pack file name.
func parsePackName(name string) (uint64, bool) {
	hex, ok := strings.CutSuffix(name, packExt)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// appendFrame appends one frame of type typ to buf.
func appendFrame(buf []byte, typ byte, a *[32]byte, body []byte) []byte {
	start := len(buf)
	buf = append(buf, frameSync...)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, a[:]...)
	sum := crc32.Update(crc32.Checksum(buf[start:start+crcAt], castagnoli), castagnoli, body)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	return append(buf, body...)
}

// appendTombstone appends a tombstone killing the record of address a
// at position at.
func appendTombstone(buf []byte, a [32]byte, at pos) []byte {
	var body [tombstoneBody]byte
	binary.LittleEndian.PutUint64(body[:8], at.seq)
	binary.LittleEndian.PutUint64(body[8:], uint64(at.off))
	return appendFrame(buf, typeTombstone, &a, body[:])
}

// tombstoneTarget decodes the position a tombstone's body names.
func tombstoneTarget(body []byte) (pos, bool) {
	if len(body) != tombstoneBody {
		return pos{}, false
	}
	return pos{binary.LittleEndian.Uint64(body[:8]), int64(binary.LittleEndian.Uint64(body[8:]))}, true
}

// frame is one verified frame.
type frame struct {
	typ  byte
	addr [32]byte
	off  int64 // offset in the pack
	body []byte
}

// parseFrame verifies the frame at the start of b. n is its length when
// ok; torn reports a frame that b ends inside of (an incomplete header,
// or a well-formed header whose body runs past b).
func parseFrame(b []byte) (fr frame, n int, ok, torn bool) {
	if len(b) < frameHeader {
		return fr, 0, false, true
	}
	if !bytes.Equal(b[:3], frameSync) {
		return fr, 0, false, false
	}
	size := int(binary.LittleEndian.Uint32(b[4:8]))
	if size > len(b)-frameHeader {
		return fr, 0, false, true
	}
	n = frameHeader + size
	body := b[frameHeader:n]
	sum := crc32.Update(crc32.Checksum(b[:crcAt], castagnoli), castagnoli, body)
	if sum != binary.LittleEndian.Uint32(b[crcAt:frameHeader]) {
		return fr, 0, false, false
	}
	fr.typ, fr.body = b[3], body
	copy(fr.addr[:], b[8:crcAt])
	return fr, n, true, false
}

// scanResult is what scanFrames found in a run of pack bytes besides
// its verified frames.
type scanResult struct {
	// damaged lists the byte ranges [start, end) that failed
	// verification but were followed by a verified frame.
	damaged [][2]int64
	// stop is where verified frames end: the length of the input unless
	// a torn or damaged tail follows. tailDamaged says the tail holds a
	// complete frame that failed verification (or bytes that are no
	// frame at all) rather than an incomplete one.
	stop        int64
	tailDamaged bool
}

// scanFrames verifies the frames of b, which starts at offset base of
// its pack, and passes each verified one to fn in order. A frame that
// fails verification is skipped up to the next one that passes; if none
// does, the scan stops there.
func scanFrames(b []byte, base int64, fn func(frame)) scanResult {
	var res scanResult
	for at := 0; at < len(b); {
		fr, n, ok, torn := parseFrame(b[at:])
		if ok {
			fr.off = base + int64(at)
			fn(fr)
			at += n
			continue
		}
		next := resync(b, at+1)
		if next < 0 {
			res.stop, res.tailDamaged = base+int64(at), !torn
			return res
		}
		res.damaged = append(res.damaged, [2]int64{base + int64(at), base + int64(next)})
		at = next
	}
	res.stop = base + int64(len(b))
	return res
}

// resync returns the offset of the first verified frame in b at or
// after from, or -1.
func resync(b []byte, from int) int {
	for from < len(b) {
		i := bytes.Index(b[from:], frameSync)
		if i < 0 {
			return -1
		}
		if _, _, ok, _ := parseFrame(b[from+i:]); ok {
			return from + i
		}
		from += i + 1
	}
	return -1
}

// readableHeader reports whether b begins with this version's pack
// header.
func readableHeader(b []byte) bool {
	return len(b) >= packHeader && string(b[:len(packMagic)]) == packMagic && b[packHeader-1] == packVersion
}

// readFrom returns the bytes of f from off to its current end.
func readFrom(f *os.File, off int64) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() <= off {
		return nil, nil
	}
	b := make([]byte, info.Size()-off)
	n, err := f.ReadAt(b, off)
	if n == len(b) {
		err = nil
	}
	return b[:n], err
}

// createPack creates the pack with the lowest unused sequence number at
// or above seq in dir, holding its writer lock. body (frames) is written
// after the header, and the file is synced before it appears under its
// name, so other handles only ever see a complete, locked pack.
func createPack(dir string, seq uint64, body []byte) (*pack, error) {
	data := append(append([]byte(packMagic), packVersion), body...)
	for try := 1; ; try++ {
		p, err := linkPack(dir, seq, data)
		if !errors.Is(err, errLostTemp) || try == 10 {
			return p, err
		}
	}
}

// errLostTemp reports a temporary pack that another handle took for a
// dead writer's debris before its lock was held: removeDebris locked it
// first, or deleted it.
var errLostTemp = errors.New("temporary pack taken for debris")

// linkPack writes data to a new temporary file under the writer lock,
// syncs it and links it into place as the pack numbered seq or the
// first free number above.
func linkPack(dir string, seq uint64, data []byte) (*pack, error) {
	f, err := os.CreateTemp(dir, "new"+packExt+tmpMarker+"*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	fail := func(err error) (*pack, error) {
		f.Close()
		return nil, err
	}
	if !tryLock(f) && lockSupported {
		return fail(errLostTemp)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	for ; ; seq++ {
		path := filepath.Join(dir, packName(seq))
		err := os.Link(tmp, path)
		if err == nil {
			syncDir(dir) // the name must survive a crash as the frames do
			return &pack{seq: seq, path: path, f: f, own: true, end: int64(len(data))}, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return fail(errLostTemp)
		}
		if !errors.Is(err, fs.ErrExist) {
			return fail(err)
		}
	}
}

// syncDir makes the entries of dir durable. Some filesystems cannot sync
// a directory; there the error is dropped and a crash right after a
// pack's creation may lose the pack's name.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
