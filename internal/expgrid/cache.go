package expgrid

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Cache memoizes cell results across sweeps so repeated coordinates — an
// SLO search re-probing a rate, a re-run of a whole suite — skip the
// simulation entirely and return the stored measurement. Entries are keyed
// by the cell's coordinate-hash seed plus a fingerprint of every
// result-shaping sweep setting (kind, durations, preconditioning, open-loop
// knobs, trace content), so two sweeps share an entry only when the cell
// would measure byte-identical results.
//
// Two identities are deliberately outside the key and must be kept stable
// by the caller: the device factory or Build hook behind a NamedFactory
// name, and the semantics of the kind's Inspect hook. Change either and
// the sweep's Label (or the cache file) should change with it.
//
// The cache is an LRU bounded by a capacity in entries, safe for
// concurrent use by the worker pool, with optional JSON persistence via
// Save/Load. A zero-capacity cache defaults to DefaultCacheCapacity.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	hits     uint64
	misses   uint64
}

// DefaultCacheCapacity bounds a cache built with NewCache(0).
const DefaultCacheCapacity = 4096

// cacheFileVersion tags the persisted JSON format.
const cacheFileVersion = 1

// cacheEntry is one cached cell: its key and its Measurement, Inspect
// capture included. It is both the in-memory slot and the persisted
// record, so a cell served from a loaded file and one stored by this
// process are the same bytes.
type cacheEntry struct {
	Key string `json:"key"`
	Measurement
}

// cacheFile is the persisted JSON document.
type cacheFile struct {
	Version int          `json:"version"`
	Entries []cacheEntry `json:"entries"`
}

// NewCache returns an empty cache holding at most capacity entries
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lookup hit and miss counts since construction.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cellKey renders the (sweep fingerprint, cell seed) pair as the entry key.
func cellKey(fingerprint, seed uint64) string {
	return fmt.Sprintf("%016x%016x", fingerprint, seed)
}

// lookup returns the cached result for the cell, reconstructed onto the
// cell's coordinates. If the sweep needs an Info (inspect true) that the
// entry does not carry, the lookup misses so the cell re-runs.
func (c *Cache) lookup(fingerprint uint64, cell Cell, inspect bool) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[cellKey(fingerprint, cell.Seed)]
	if !ok || (inspect && el.Value.(*cacheEntry).Info == nil) {
		c.misses++
		return CellResult{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	out := CellResult{Cell: cell, Measurement: el.Value.(*cacheEntry).Measurement, Cached: true}
	if !inspect {
		out.Info = nil
	}
	return out, true
}

// store caches a successful cell result.
func (c *Cache) store(fingerprint uint64, res CellResult) {
	if res.Err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(&cacheEntry{Key: cellKey(fingerprint, res.Seed), Measurement: res.Measurement})
}

// insert adds or replaces e as the most recently used entry, evicting
// from the back past capacity. The caller holds c.mu.
func (c *Cache) insert(e *cacheEntry) {
	if el, ok := c.byKey[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).Key)
	}
}

// Save writes the cache as JSON, entries in deterministic key order.
func (c *Cache) Save(w io.Writer) error {
	c.mu.Lock()
	doc := cacheFile{Version: cacheFileVersion}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		doc.Entries = append(doc.Entries, *el.Value.(*cacheEntry))
	}
	c.mu.Unlock()
	sort.Slice(doc.Entries, func(i, j int) bool { return doc.Entries[i].Key < doc.Entries[j].Key })
	return json.NewEncoder(w).Encode(doc)
}

// Load merges entries from a JSON document written by Save; a loaded
// entry replaces an in-memory one with the same key.
func (c *Cache) Load(r io.Reader) error {
	var doc cacheFile
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("expgrid: cache load: %w", err)
	}
	if doc.Version != cacheFileVersion {
		return fmt.Errorf("expgrid: cache version %d (want %d)", doc.Version, cacheFileVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range doc.Entries {
		c.insert(&e)
	}
	return nil
}

// SaveFile writes the cache to path (atomic rename via a sibling temp file).
func (c *Cache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges entries from path. A missing file is not an error — the
// cache simply starts cold.
func (c *Cache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return c.Load(f)
}
