package blockcache

import (
	"container/list"
	"sync"

	"adj/internal/trie"
)

// BlockID addresses one block trie in the session-resident store across
// queries and shuffles. It is keyed purely by content, never by name:
//
//   - Content is the fingerprint of the base relation the block was carved
//     from (relation.Fingerprint of the registered relation, or a derived
//     signature for engine-materialized intermediates).
//   - Layout hashes the structural context that determines both the block's
//     membership and its trie shape: the column permutation into the trie's
//     attribute order and the per-column share counts of the HCube shuffle.
//     Attribute *names* are excluded, so the same edge relation bound under
//     atoms R1, R2, R3 — or under a different query entirely — shares one
//     set of store entries whenever the shares and permutation agree.
//   - Sig is the block's hash signature under those shares.
//
// Same BlockID ⇒ byte-identical block trie (up to attribute names, which
// adopters re-skin), so a store hit replaces a shuffle-side build exactly.
type BlockID struct {
	Content uint64
	Layout  uint64
	Sig     int
}

// ManifestID addresses the manifest of one (relation content, layout): the
// complete set of non-empty block signatures a shuffle of that relation
// produces. A warm shuffle needs the manifest plus every listed block; if
// eviction broke the set, the relation falls back to a cold shuffle.
//
// Alongside its manifests the store remembers each content's tuple count
// (Size). An engine-materialized relation's size picks the shuffle's
// shares, and the shares pick the layout, so a warm execution needs the
// size before it can address a manifest without re-materializing the
// relation. The size is dropped together with any manifest of its content,
// which keeps the size records bounded by the manifests and so by the LRU.
type ManifestID struct {
	Content uint64
	Layout  uint64
}

// StoreStats snapshots store activity.
type StoreStats struct {
	// Blocks and Bytes are the current resident entry count and charged size.
	Blocks int64
	Bytes  int64
	// Budget echoes the configured byte budget (0 = unbounded).
	Budget int64
	// Hits counts block lookups served; Misses counts lookups (or manifest
	// snapshots) that failed; Evictions counts blocks dropped by the LRU.
	Hits      int64
	Misses    int64
	Evictions int64
}

// Store is the session-resident, cross-query block-trie store: the
// promotion of the per-shuffle Registry to session lifetime. Cold shuffles
// publish their built block tries here (keyed by content, not by query);
// later executions over unchanged relation content adopt the tries back
// into their per-shuffle registries and skip the shuffle — and its trie
// builds — entirely. Entries are bounded by an LRU byte budget measured
// with trie.MemBytes. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64
	entries   map[BlockID]*storeEntry
	lru       *list.List // front = most recently used; values are *storeEntry
	manifests map[ManifestID][]int
	sizes     map[uint64]int64 // content -> tuple count; see ManifestID

	hits, misses, evictions int64
}

type storeEntry struct {
	id    BlockID
	trie  *trie.Trie
	bytes int64
	elem  *list.Element
}

// NewStore returns an empty store with the given byte budget (<= 0 means
// unbounded).
func NewStore(budgetBytes int64) *Store {
	return &Store{
		budget:    budgetBytes,
		entries:   make(map[BlockID]*storeEntry),
		lru:       list.New(),
		manifests: make(map[ManifestID][]int),
		sizes:     make(map[uint64]int64),
	}
}

// Put deposits one built block trie, evicting least-recently-used entries
// if the byte budget overflows. Re-putting an existing id refreshes its
// recency and swaps the trie (same content key ⇒ same content, so the swap
// is observationally idempotent).
func (s *Store) Put(id BlockID, t *trie.Trie) {
	if s == nil || t == nil {
		return
	}
	nb := t.MemBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && nb > s.budget {
		// A block that alone exceeds the whole budget is never admitted —
		// admitting it would evict everything else and still overflow. Its
		// relation simply can't go warm, so the manifest is dropped too.
		// The rejection counts as an eviction: the block was offered and
		// not retained.
		s.evictions++
		s.dropManifest(ManifestID{id.Content, id.Layout})
		if e, ok := s.entries[id]; ok {
			s.lru.Remove(e.elem)
			delete(s.entries, id)
			s.bytes -= e.bytes
		}
		return
	}
	if e, ok := s.entries[id]; ok {
		s.bytes += nb - e.bytes
		e.trie, e.bytes = t, nb
		s.lru.MoveToFront(e.elem)
		s.evictOver()
		return
	}
	e := &storeEntry{id: id, trie: t, bytes: nb}
	e.elem = s.lru.PushFront(e)
	s.entries[id] = e
	s.bytes += nb
	s.evictOver()
}

// evictOver drops LRU entries until bytes fit the budget. Called with the
// lock held. Oversized single blocks are rejected at Put, so the loop
// always terminates within budget.
func (s *Store) evictOver() {
	if s.budget <= 0 {
		return
	}
	for s.bytes > s.budget && s.lru.Len() > 0 {
		back := s.lru.Back()
		e := back.Value.(*storeEntry)
		s.lru.Remove(back)
		delete(s.entries, e.id)
		s.bytes -= e.bytes
		s.evictions++
		// The manifest referencing the evicted block can no longer serve a
		// warm shuffle; dropping it keeps the manifest map bounded by the
		// LRU too (stale contents age out with their blocks instead of
		// accumulating over a session's lifetime of re-registrations).
		s.dropManifest(ManifestID{e.id.Content, e.id.Layout})
	}
}

// dropManifest forgets one manifest and its content's size record. Called
// with the lock held.
func (s *Store) dropManifest(id ManifestID) {
	delete(s.manifests, id)
	delete(s.sizes, id.Content)
}

// PutManifest records the complete signature set of one (content, layout)
// after a cold shuffle published all its blocks, plus the content's tuple
// count (see Size). sigs is copied. If any listed block is not resident —
// rejected as oversized, or already evicted by the publishes that followed
// it — the manifest is dropped instead of stored: a manifest that can
// never be served would otherwise make every later execution walk it,
// miss, fall back cold and re-publish, churning the store on each run.
func (s *Store) PutManifest(id ManifestID, sigs []int, size int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sig := range sigs {
		if _, ok := s.entries[BlockID{id.Content, id.Layout, sig}]; !ok {
			s.dropManifest(id)
			return
		}
	}
	s.manifests[id] = append([]int(nil), sigs...)
	s.sizes[id.Content] = size
}

// Size returns the tuple count recorded with content's manifests. ok is
// false when no manifest of content survives. The lookup touches no
// recency and counts neither a hit nor a miss: the Snapshot that follows
// it does.
func (s *Store) Size(content uint64) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.sizes[content]
	return n, ok
}

// Snapshot returns every block trie of one (content, layout) keyed by block
// signature, touching each entry's recency — the warm-shuffle lookup. It
// returns ok=false (and counts a miss) when no manifest exists or any
// listed block has been evicted: warm execution is all-or-nothing per
// relation, because a partial set cannot reproduce the shuffle's bindings.
func (s *Store) Snapshot(id ManifestID) (map[int]*trie.Trie, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sigs, ok := s.manifests[id]
	if !ok {
		s.misses++
		return nil, false
	}
	out := make(map[int]*trie.Trie, len(sigs))
	for _, sig := range sigs {
		e, ok := s.entries[BlockID{id.Content, id.Layout, sig}]
		if !ok {
			s.misses++
			return nil, false
		}
		out[sig] = e.trie
	}
	for _, sig := range sigs {
		s.lru.MoveToFront(s.entries[BlockID{id.Content, id.Layout, sig}].elem)
	}
	s.hits += int64(len(sigs))
	return out, true
}

// Len returns the number of resident blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the charged resident size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Blocks:    int64(len(s.entries)),
		Bytes:     s.bytes,
		Budget:    s.budget,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}
