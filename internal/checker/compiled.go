package checker

// Compiled-table verification: semantically exact mirrors of
// VerifyRecording / VerifyDiscerning that run on a compile.Compiled
// table instead of interpreting spec.Type. States, ops and responses
// are uint16 indices, Apply is two flat array reads, and the string
// memo keys become a mixed-radix integer (the remaining-counts vector
// is bounded by per-op totals, so each slot is a digit with radix
// total+1).
//
// The core has two representations of a reach set, and picks one per
// candidate from dimensions it can observe:
//
//   - Word masks, for a table with NumStates×NumResps ≤ 64 whose memo
//     (NumStates × remaining-count vectors) fits maxMaskEntries. A Q
//     set is a uint64 over states and an R set a uint64 over
//     (response, state) pairs. The set reachable from (state, remaining
//     counts) is memoized once per candidate, or per j-slot for the R
//     sets, so team A's and team B's sets share every entry: Q_A and
//     Q_B are ORs of per-slot start masks, each R set is an OR of at
//     most m+1 of them, and one AND tests a pair of sets. An epoch
//     counter invalidates the memo, so nothing is cleared per set.
//   - Explicit DFS otherwise: the interpreted explorers' (state ×
//     remaining counts [× j-response]) graph, a visited bitset and a
//     member list per set.
//
// IndexSearch is the one entry point. Its alphabet slots are the
// table's op indices, and it checks each candidate of an index shard
// (as ShardCursor yields them) directly on its per-team slot count
// vectors, in scratch buffers the searcher owns and keeps across Reset,
// so a search allocates nothing per candidate: a candidate only passes
// or fails, and only the passing one becomes a Witness. A shard with more
// processes than the dense counts encoding supports, or with an empty
// team, runs on the interpreted verifier on the table's source type,
// and so does every shard of a searcher from NewInterpretedSearch (the
// compiled core's parity oracle), so the search is total and its
// verdicts are bit-identical everywhere.

import (
	"context"
	"errors"

	"rcons/internal/compile"
	"rcons/internal/spec"
)

// maxCompiledN bounds the process count for the mixed-radix counts
// encoding: the product of (total_k+1) over alphabet slots is at most
// 2^n, kept below 2^15 so index arithmetic stays far from overflow even
// multiplied by the state and response dimensions.
const maxCompiledN = 15

// maxDenseBits is the visited-set size (in entries) up to which a flat
// bitset is used; larger key spaces fall back to a hash set, which is
// still allocation-light compared to the interpreted string keys.
const maxDenseBits = 1 << 25

// maxMaskCells is the largest NumStates×NumResps whose R sets, as
// (response, state) pairs, fit one uint64 mask.
const maxMaskCells = 64

// maxMaskEntries caps the mask memo at NumStates × Π(totals+1)
// entries; a candidate past it runs the explicit DFS.
const maxMaskEntries = 1 << 14

// interpreted returns the interpreted verifier for a property.
func interpreted(recording bool) VerifyFunc {
	if recording {
		return VerifyRecording
	}
	return VerifyDiscerning
}

// compiledShape reports whether the core can search a shard of n
// processes whose team A has the given counts: n within the counts
// encoding, and both teams non-empty.
func compiledShape(n int, aCounts []int) bool {
	a := 0
	for _, k := range aCounts {
		a += k
	}
	return n <= maxCompiledN && a >= 1 && a < n
}

// IndexSearch searches the index shards of one compiled table among n
// processes for one property: the shards ShardCursor yields, each an
// initial-state index and a team-A count per table op index, with team
// B taking the rest of the n processes. A compiled searcher owns its
// scratch and keeps it across Reset, so once that scratch is warm a
// witness-free shard allocates nothing; an interpreted one holds none.
// An IndexSearch is used by one goroutine at a time.
type IndexSearch struct {
	c           *compile.Compiled
	n           int
	recording   bool
	interpreted bool
	sc          scratch // unused by an interpreted searcher
}

// NewIndexSearch returns a compiled searcher over c among n processes
// for the recording (recording=true) or discerning property. c must
// pass Searchable and be the table of the alphabet at n.
func NewIndexSearch(c *compile.Compiled, n int, recording bool) *IndexSearch {
	s := new(IndexSearch)
	s.Reset(c, n, recording)
	return s
}

// NewInterpretedSearch returns a searcher like NewIndexSearch's that
// checks every shard with the interpreted verifier on c's source type,
// so no compiled verification runs: the parity oracle that the
// compiled core is checked against.
func NewInterpretedSearch(c *compile.Compiled, n int, recording bool) *IndexSearch {
	return &IndexSearch{c: c, n: n, recording: recording, interpreted: true}
}

// Reset re-arms s for another search, over c among n processes, as
// its constructor would build it: compiled or interpreted as before,
// and keeping its scratch.
func (s *IndexSearch) Reset(c *compile.Compiled, n int, recording bool) {
	s.c, s.n, s.recording = c, n, recording
	if !s.interpreted {
		s.sc.setTable(c)
	}
}

// errStopped ends an interpreted fallback search when stop fires.
var errStopped = errors.New("checker: shard search stopped")

// Search returns the first witness of the shard (q0, aCounts) in
// Search's enumeration order, or nil when it has none: the same witness
// the sequential search finds first in the equivalent string shard.
// It polls stop before each candidate and, once stop reports true,
// abandons the shard and returns (nil, nil): the caller that decided to
// stop knows the result is void. An interpreted searcher, or a shard of
// more than maxCompiledN processes, runs on the interpreted verifier,
// exactly.
func (s *IndexSearch) Search(q0 uint16, aCounts []int, stop func() bool) (*Witness, error) {
	c, n := s.c, s.n
	if s.interpreted || !compiledShape(n, aCounts) {
		verify := interpreted(s.recording)
		sh := shard{q0: c.StateAt(q0), ops: c.Alphabet(), aCounts: aCounts, n: n}
		w, err := searchShard(context.Background(), c.Source(), sh, func(t spec.Type, w Witness) (Result, error) {
			if stop() {
				return Result{}, errStopped
			}
			return verify(t, w)
		})
		if errors.Is(err, errStopped) {
			return nil, nil
		}
		return w, err
	}
	if !s.sc.search(c, q0, aCounts, n, s.recording, stop) {
		return nil, nil
	}
	w := witnessFromCounts(c.StateAt(q0), c.Alphabet(), aCounts, s.sc.cnt[TeamB])
	return &w, nil
}

// scratch holds every buffer one compiled verification needs. Alphabet
// slots are table op indices. cnt holds the current candidate's
// per-team slot counts; layout fills totals, strides, prod and fullIdx
// for the process multiset being explored.
type scratch struct {
	cnt [2][]int // per-team process count per slot

	totals  []int // per-slot process count being explored (both teams)
	rem     []int // remaining counts during a DFS
	strides []int // mixed-radix stride per slot
	prod    int   // Π(totals+1): size of the counts dimension
	fullIdx int   // radix index of the full totals vector

	opJ        uint16 // table op of process j (R sets)
	respFactor int    // NumResps+1: j-slot radix of the R-set memo key

	visited    indexSet
	outA, outB memberSet

	words  bool   // the table fits word masks (maxMaskCells)
	states int    // NumStates: the per-response stride of an R mask
	epoch  uint32 // the memo entries stamped with it are valid
	reach  []maskEntry
	before []maskEntry
}

// maskEntry is one memoized reach mask, valid when its stamp equals
// the scratch's epoch.
type maskEntry struct {
	stamp uint32
	mask  uint64
}

// resize returns s with length n, reallocating only when it lacks the
// capacity; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setTable sizes the slot buffers for c's alphabet.
func (sc *scratch) setTable(c *compile.Compiled) {
	m := c.NumOps()
	sc.cnt[TeamA] = resize(sc.cnt[TeamA], m)
	sc.cnt[TeamB] = resize(sc.cnt[TeamB], m)
	sc.totals = resize(sc.totals, m)
	sc.rem = resize(sc.rem, m)
	sc.strides = resize(sc.strides, m)
	sc.states = c.NumStates()
	sc.words = sc.states*c.NumResps() <= maxMaskCells
}

// search runs one shard of n processes: team A fixed at aCounts (per
// slot), team B taking every multiset of the remaining processes over
// the slots in nextMultiset order. It polls stop before each candidate
// and reports whether a candidate passed, its team-B counts left in
// sc.cnt[TeamB]; it reports false when stop ended the search first.
func (sc *scratch) search(c *compile.Compiled, q0 uint16, aCounts []int, n int, recording bool, stop func() bool) bool {
	copy(sc.cnt[TeamA], aCounts)
	for _, a := range aCounts {
		n -= a
	}
	b := sc.cnt[TeamB]
	clear(b)
	b[0] = n
	for {
		if stop() {
			return false
		}
		if sc.verify(c, q0, recording) {
			return true
		}
		if !nextMultiset(b) {
			return false
		}
	}
}

// layout sets the mixed-radix layout for the processes of the current
// candidate, minus one process of slot skip when skip ≥ 0 (process j,
// which the R-set explorer tracks individually). A slot with total 0
// has radix 1, so memo keys equal those of an alphabet without it.
func (sc *scratch) layout(skip int) {
	sc.prod, sc.fullIdx = 1, 0
	for k := range sc.totals {
		t := sc.cnt[TeamA][k] + sc.cnt[TeamB][k]
		if k == skip {
			t--
		}
		sc.totals[k] = t
		sc.strides[k] = sc.prod
		sc.fullIdx += t * sc.prod
		sc.prod *= t + 1
	}
}

// verify reports whether the candidate in sc.cnt passes the recording
// or the discerning definition, on word masks when the table and the
// candidate's memo fit them and by explicit DFS otherwise.
func (sc *scratch) verify(c *compile.Compiled, q0 uint16, recording bool) bool {
	sc.layout(-1)
	words := sc.words && sc.states*sc.prod <= maxMaskEntries
	switch {
	case recording && words:
		return sc.recordingMasks(c, q0)
	case recording:
		return sc.recording(c, q0)
	case words:
		return sc.discerningMasks(c, q0)
	}
	return sc.discerning(c, q0)
}

// recording checks the three conditions of Definition 4 by DFS, on the
// layout of every process that verify sets.
func (sc *scratch) recording(c *compile.Compiled, q0 uint16) bool {
	sc.qSet(c, q0, TeamA, &sc.outA)
	sc.qSet(c, q0, TeamB, &sc.outB)
	for _, s := range sc.outA.members {
		if sc.outB.has(s) {
			return false // (1): a state in both Q_A and Q_B
		}
	}
	sizeA, sizeB := 0, 0
	for k := range sc.totals {
		sizeA += sc.cnt[TeamA][k]
		sizeB += sc.cnt[TeamB][k]
	}
	// (2) q0 ∈ Q_A forces |B| = 1, and (3) q0 ∈ Q_B forces |A| = 1.
	return !(sc.outA.has(int(q0)) && sizeB != 1) && !(sc.outB.has(int(q0)) && sizeA != 1)
}

// qSet computes the Q_x set of Definition 4 into out as state indices,
// mirroring QSet.
func (sc *scratch) qSet(c *compile.Compiled, q0 uint16, x int, out *memberSet) {
	sc.visited.reset(c.NumStates() * sc.prod)
	out.reset(c.NumStates())
	copy(sc.rem, sc.totals)
	for k := range sc.rem {
		if sc.cnt[x][k] == 0 {
			continue
		}
		sc.rem[k]--
		sc.qDFS(c, c.Next(q0, uint16(k)), sc.fullIdx-sc.strides[k], out)
		sc.rem[k]++
	}
}

func (sc *scratch) qDFS(c *compile.Compiled, si uint16, remIdx int, out *memberSet) {
	if !sc.visited.insert(int(si)*sc.prod + remIdx) {
		return
	}
	out.insert(int(si))
	for k, r := range sc.rem {
		if r == 0 {
			continue
		}
		sc.rem[k]--
		sc.qDFS(c, c.Next(si, uint16(k)), remIdx-sc.strides[k], out)
		sc.rem[k]++
	}
}

// discerning checks Definition 2 by DFS. Processes with the same team
// and operation have identical R sets, so it checks one process j per
// (team, slot) class rather than every process.
func (sc *scratch) discerning(c *compile.Compiled, q0 uint16) bool {
	for team := TeamA; team <= TeamB; team++ {
		for k, cnt := range sc.cnt[team] {
			if cnt == 0 {
				continue
			}
			sc.layout(k)
			sc.rSet(c, q0, TeamA, team, k, &sc.outA)
			sc.rSet(c, q0, TeamB, team, k, &sc.outB)
			for _, p := range sc.outA.members {
				if sc.outB.has(p) {
					return false // R_{A,j} ∩ R_{B,j} ≠ ∅
				}
			}
		}
	}
	return true
}

// rSet computes R_{x,j} of Definition 2 into out as
// respIdx*NumStates + stateIdx keys, mirroring RSet, for a process j
// of team jTeam whose op is alphabet slot jSlot. The j-tracking
// dimension folds into the memo key as a factor of NumResps+1: slot 0
// is "j not yet applied", slot 1+r is "j applied, returned response r".
func (sc *scratch) rSet(c *compile.Compiled, q0 uint16, x, jTeam, jSlot int, out *memberSet) {
	sc.opJ = uint16(jSlot)
	sc.respFactor = c.NumResps() + 1
	sc.visited.reset(c.NumStates() * sc.prod * sc.respFactor)
	out.reset(c.NumStates() * c.NumResps())
	copy(sc.rem, sc.totals)
	// Case 1: process j goes first (only admissible if j is on team x).
	if jTeam == x {
		ns, r := c.Apply(q0, sc.opJ)
		sc.rDFS(c, ns, sc.fullIdx, 1+int(r), out)
	}
	// Case 2: another process on team x goes first.
	for k, n := range sc.cnt[x] {
		if x == jTeam && k == jSlot {
			n--
		}
		if n == 0 {
			continue
		}
		sc.rem[k]--
		sc.rDFS(c, c.Next(q0, uint16(k)), sc.fullIdx-sc.strides[k], 0, out)
		sc.rem[k]++
	}
}

func (sc *scratch) rDFS(c *compile.Compiled, si uint16, remIdx, jSlot int, out *memberSet) {
	if !sc.visited.insert((int(si)*sc.prod+remIdx)*sc.respFactor + jSlot) {
		return
	}
	if jSlot > 0 {
		out.insert((jSlot-1)*c.NumStates() + int(si))
	}
	for k, r := range sc.rem {
		if r == 0 {
			continue
		}
		sc.rem[k]--
		sc.rDFS(c, c.Next(si, uint16(k)), remIdx-sc.strides[k], jSlot, out)
		sc.rem[k]++
	}
	if jSlot == 0 {
		ns, r := c.Apply(si, sc.opJ)
		sc.rDFS(c, ns, remIdx, 1+int(r), out)
	}
}

// newEpoch invalidates every mask memo entry and sizes the memos for
// the current layout.
func (sc *scratch) newEpoch() {
	size := sc.states * sc.prod
	sc.reach = resize(sc.reach, size)
	sc.before = resize(sc.before, size)
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.reach[:cap(sc.reach)])
		clear(sc.before[:cap(sc.before)])
		sc.epoch = 1
	}
}

// recordingMasks checks Definition 4 on word masks, on the layout of
// every process that verify sets.
func (sc *scratch) recordingMasks(c *compile.Compiled, q0 uint16) bool {
	sc.newEpoch()
	copy(sc.rem, sc.totals)
	var q [2]uint64
	var size [2]int
	for x := TeamA; x <= TeamB; x++ {
		for k, cnt := range sc.cnt[x] {
			if cnt == 0 {
				continue
			}
			size[x] += cnt
			sc.rem[k]--
			q[x] |= sc.reachMask(c, c.Next(q0, uint16(k)), sc.fullIdx-sc.strides[k])
			sc.rem[k]++
		}
	}
	at := uint64(1) << q0
	// (1) Q_A ∩ Q_B = ∅; (2) q0 ∈ Q_A forces |B| = 1, and (3) q0 ∈ Q_B
	// forces |A| = 1.
	return q[TeamA]&q[TeamB] == 0 &&
		!(q[TeamA]&at != 0 && size[TeamB] != 1) && !(q[TeamB]&at != 0 && size[TeamA] != 1)
}

// reachMask returns the states reachable from si by the processes
// left in sc.rem (remIdx their radix index), si itself included.
func (sc *scratch) reachMask(c *compile.Compiled, si uint16, remIdx int) uint64 {
	i := int(si)*sc.prod + remIdx
	if e := sc.reach[i]; e.stamp == sc.epoch {
		return e.mask
	}
	m := uint64(1) << si
	for k, r := range sc.rem {
		if r == 0 {
			continue
		}
		sc.rem[k]--
		m |= sc.reachMask(c, c.Next(si, uint16(k)), remIdx-sc.strides[k])
		sc.rem[k]++
	}
	sc.reach[i] = maskEntry{sc.epoch, m}
	return m
}

// discerningMasks checks Definition 2 on word masks. Every process j
// of slot k sees the same layout (the others' counts), so one memo
// epoch per slot serves both j-classes (A,k) and (B,k) and both teams'
// R sets.
func (sc *scratch) discerningMasks(c *compile.Compiled, q0 uint16) bool {
	for k := range sc.totals {
		if sc.cnt[TeamA][k]+sc.cnt[TeamB][k] == 0 {
			continue
		}
		sc.layout(k)
		sc.newEpoch()
		sc.opJ = uint16(k)
		copy(sc.rem, sc.totals)
		for team := TeamA; team <= TeamB; team++ {
			if sc.cnt[team][k] == 0 {
				continue
			}
			if sc.rMask(c, q0, TeamA, team)&sc.rMask(c, q0, TeamB, team) != 0 {
				return false // R_{A,j} ∩ R_{B,j} ≠ ∅
			}
		}
	}
	return true
}

// rMask returns R_{x,j} of Definition 2 as a mask over
// respIdx*NumStates + stateIdx bits, for a process j of team jTeam
// whose op is slot sc.opJ.
func (sc *scratch) rMask(c *compile.Compiled, q0 uint16, x, jTeam int) uint64 {
	var m uint64
	// Case 1: process j goes first (only admissible if j is on team x).
	if jTeam == x {
		ns, r := c.Apply(q0, sc.opJ)
		m = sc.reachMask(c, ns, sc.fullIdx) << (int(r) * sc.states)
	}
	// Case 2: another process on team x goes first.
	for k, n := range sc.cnt[x] {
		if x == jTeam && k == int(sc.opJ) {
			n--
		}
		if n == 0 {
			continue
		}
		sc.rem[k]--
		m |= sc.beforeMask(c, c.Next(q0, uint16(k)), sc.fullIdx-sc.strides[k])
		sc.rem[k]++
	}
	return m
}

// beforeMask returns the (response, state) pairs j's op can produce
// from si, j not yet applied, with the processes left in sc.rem.
func (sc *scratch) beforeMask(c *compile.Compiled, si uint16, remIdx int) uint64 {
	i := int(si)*sc.prod + remIdx
	if e := sc.before[i]; e.stamp == sc.epoch {
		return e.mask
	}
	ns, r := c.Apply(si, sc.opJ)
	m := sc.reachMask(c, ns, remIdx) << (int(r) * sc.states)
	for k, n := range sc.rem {
		if n == 0 {
			continue
		}
		sc.rem[k]--
		m |= sc.beforeMask(c, c.Next(si, uint16(k)), remIdx-sc.strides[k])
		sc.rem[k]++
	}
	sc.before[i] = maskEntry{sc.epoch, m}
	return m
}

// indexSet is a visited/membership set over dense integer keys: a flat
// bitset when the key space is small enough, a hash set otherwise.
// reset empties it for a key space of the given size, keeping its
// storage.
type indexSet struct {
	dense bool
	bits  []uint64
	m     map[int]struct{}
}

func (s *indexSet) reset(size int) {
	s.dense = size <= maxDenseBits
	if !s.dense {
		if s.m == nil {
			s.m = make(map[int]struct{}, 1024)
		}
		clear(s.m)
		return
	}
	s.bits = resize(s.bits, (size+63)/64)
	clear(s.bits)
}

// insert adds key and reports whether it was absent.
func (s *indexSet) insert(key int) bool {
	if s.dense {
		w, b := key/64, uint64(1)<<(key%64)
		if s.bits[w]&b != 0 {
			return false
		}
		s.bits[w] |= b
		return true
	}
	if _, ok := s.m[key]; ok {
		return false
	}
	s.m[key] = struct{}{}
	return true
}

func (s *indexSet) has(key int) bool {
	if s.dense {
		return s.bits[key/64]&(uint64(1)<<(key%64)) != 0
	}
	_, ok := s.m[key]
	return ok
}

// memberSet is an indexSet that also records members in insertion
// order, for iteration (DFS order is deterministic, so so is this).
type memberSet struct {
	set     indexSet
	members []int
}

func (s *memberSet) reset(size int) {
	s.set.reset(size)
	s.members = s.members[:0]
}

func (s *memberSet) insert(key int) {
	if s.set.insert(key) {
		s.members = append(s.members, key)
	}
}

func (s *memberSet) has(key int) bool { return s.set.has(key) }
