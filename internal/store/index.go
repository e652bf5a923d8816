package store

// rec locates one live record: its pack, the offset of its frame and
// the size of its envelope (the frame's body).
type rec struct {
	addr [32]byte
	p    *pack
	off  int64
	size int64
	// prev and next link the record into the recency list while it is
	// evictable, that is while its pack is not held by another live
	// handle; listed says it is linked.
	prev, next *rec
	listed     bool
}

func (r *rec) at() pos { return pos{r.p.seq, r.off} }

// index maps each address to its live record and keeps the evictable
// records in recency order — the bookkeeping behind Get and the disk
// budget. It is not safe for concurrent use on its own; the Store's
// mutex guards it.
//
// The index is this Store's view of the directory: it holds what Open
// found, what this Store wrote, and what it found in other writers'
// packs when a miss sent it looking. Compact rebuilds it from the packs.
type index struct {
	recs map[[32]byte]*rec
	// lru is the recency list's sentinel: lru.next is the most recently
	// used record, lru.prev the least.
	lru rec
	// bytes sums the sizes of every record, listedBytes those of the
	// evictable ones.
	bytes, listedBytes int64
}

func newIndex() *index {
	x := &index{recs: map[[32]byte]*rec{}}
	x.lru.prev, x.lru.next = &x.lru, &x.lru
	return x
}

func (x *index) get(a [32]byte) *rec { return x.recs[a] }

// put makes r the record of its address, replacing any other, as the
// most recently used.
func (x *index) put(r *rec) {
	if old := x.recs[r.addr]; old != nil {
		x.remove(old)
	}
	x.recs[r.addr] = r
	x.bytes += r.size
	if !r.p.held {
		r.listed = true
		x.listedBytes += r.size
		x.link(r)
	}
}

// remove drops r if it is still the record of its address.
func (x *index) remove(r *rec) {
	if x.recs[r.addr] != r {
		return
	}
	delete(x.recs, r.addr)
	x.bytes -= r.size
	if r.listed {
		x.unlink(r)
		r.listed = false
		x.listedBytes -= r.size
	}
}

// touch makes r the most recently used record, if it is still the
// record of its address.
func (x *index) touch(r *rec) {
	if r.listed && x.recs[r.addr] == r {
		x.unlink(r)
		x.link(r)
	}
}

// oldestFirst returns the evictable records from least to most
// recently used.
func (x *index) oldestFirst() []*rec {
	out := make([]*rec, 0, len(x.recs))
	for r := x.lru.prev; r != &x.lru; r = r.prev {
		out = append(out, r)
	}
	return out
}

func (x *index) len() int { return len(x.recs) }

func (x *index) link(r *rec) {
	r.prev, r.next = &x.lru, x.lru.next
	r.next.prev = r
	x.lru.next = r
}

func (x *index) unlink(r *rec) {
	r.prev.next, r.next.prev = r.next, r.prev
	r.prev, r.next = nil, nil
}
