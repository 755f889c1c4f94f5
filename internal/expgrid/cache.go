package expgrid

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"essdsim/internal/trace"
	"essdsim/internal/workload"
	"essdsim/kv"
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

// cacheEntry is one live cache slot. rec holds the serializable
// measurement; info holds the live Inspect capture when one is usable
// in-process (stored by this process, or decoded via Sweep.DecodeInfo);
// nil means the entry carries none yet.
//
// An entry stored in-process keeps its Info live-only (rec.Info nil) until
// the first Save serializes it — store() is on the sweep hot path and must
// not pay a JSON marshal per cell. The deferred marshal snapshots the Info
// at Save time, which is equivalent because Inspect captures are value
// summaries the sweep never mutates after fold.
type cacheEntry struct {
	key      string
	rec      cacheRecord
	info     any
	volatile bool // Info could not marshal; entry is in-memory only
}

// cacheRecord is the wire form of one cached cell measurement.
type cacheRecord struct {
	Key    string                   `json:"key"`
	Device string                   `json:"device,omitempty"`
	Res    *workload.Result         `json:"closed,omitempty"`
	Open   *workload.OpenResult     `json:"open,omitempty"`
	Replay *trace.ReplayResult      `json:"replay,omitempty"`
	Mix    []*workload.TenantResult `json:"mix,omitempty"`
	KV     []*kv.MixResult          `json:"kv,omitempty"`
	Info   json.RawMessage          `json:"info,omitempty"`
}

// cacheFile is the persisted JSON document.
type cacheFile struct {
	Version int           `json:"version"`
	Entries []cacheRecord `json:"entries"`
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
// cell's coordinates. A disk-loaded entry whose Info has not been decoded
// yet is decoded through decode; if the sweep needs an Info (inspect true)
// that the entry cannot supply, the lookup misses so the cell re-runs.
func (c *Cache) lookup(fingerprint uint64, cell Cell, inspect bool, decode func([]byte) (any, error)) (CellResult, bool) {
	key := cellKey(fingerprint, cell.Seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return CellResult{}, false
	}
	e := el.Value.(*cacheEntry)
	if inspect && e.info == nil {
		if e.rec.Info == nil || decode == nil {
			c.misses++
			return CellResult{}, false
		}
		info, err := decode(e.rec.Info)
		if err != nil || info == nil {
			c.misses++
			return CellResult{}, false
		}
		e.info = info
	}
	c.ll.MoveToFront(el)
	c.hits++
	out := CellResult{
		Cell:   cell,
		Device: e.rec.Device,
		Res:    e.rec.Res,
		Open:   e.rec.Open,
		Replay: e.rec.Replay,
		Mix:    e.rec.Mix,
		KV:     e.rec.KV,
		Cached: true,
	}
	if inspect {
		out.Info = e.info
	}
	return out, true
}

// store caches a successful cell result. The Info capture is kept live and
// serialized lazily — once, at the first Save that sees the entry — so the
// per-cell store cost is a map insert, not a JSON marshal.
func (c *Cache) store(fingerprint uint64, res CellResult) {
	if res.Err != nil {
		return
	}
	key := cellKey(fingerprint, res.Seed)
	e := &cacheEntry{
		key: key,
		rec: cacheRecord{
			Key:    key,
			Device: res.Device,
			Res:    res.Res,
			Open:   res.Open,
			Replay: res.Replay,
			Mix:    res.Mix,
			KV:     res.KV,
		},
		info: res.Info,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// Save writes the cache as JSON, entries in deterministic key order.
// Inspect captures stored live in this process are marshalled here, once
// per entry (the result is memoized on the entry, so repeated Saves and
// sweeps re-storing the same coordinates never re-serialize). Entries
// whose capture cannot marshal are skipped and marked in-memory only.
func (c *Cache) Save(w io.Writer) error {
	c.mu.Lock()
	doc := cacheFile{Version: cacheFileVersion}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.info != nil && e.rec.Info == nil && !e.volatile {
			raw, err := json.Marshal(e.info)
			if err != nil {
				e.volatile = true
			} else {
				e.rec.Info = raw
			}
		}
		if e.volatile {
			continue
		}
		doc.Entries = append(doc.Entries, e.rec)
	}
	c.mu.Unlock()
	sort.Slice(doc.Entries, func(i, j int) bool { return doc.Entries[i].Key < doc.Entries[j].Key })
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Load merges entries from a JSON document written by Save. Loaded Inspect
// captures stay in their raw form until a sweep with a DecodeInfo hook
// first hits them.
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
	for _, rec := range doc.Entries {
		rec := rec
		if _, ok := c.byKey[rec.Key]; ok {
			continue
		}
		e := &cacheEntry{key: rec.Key, rec: rec}
		c.byKey[rec.Key] = c.ll.PushFront(e)
		for c.ll.Len() > c.capacity {
			last := c.ll.Back()
			c.ll.Remove(last)
			delete(c.byKey, last.Value.(*cacheEntry).key)
		}
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
