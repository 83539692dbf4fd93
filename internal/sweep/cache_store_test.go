package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"earlyrelease/internal/pipeline"
)

// smallGrid keeps the store-mode suite fast: 8 points, one trace decode
// each at the differential suite's scale.
func smallGrid() Grid {
	return Grid{
		Workloads: []string{"tomcatv", "go"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{40, 48},
		Scale:     15_000,
	}
}

// marshalCorpus renders every outcome's result as its cache JSON, the
// byte-level currency the differential assertions compare in.
func marshalCorpus(t *testing.T, res *Results) map[string][]byte {
	t.Helper()
	m := make(map[string][]byte, len(res.Outcomes))
	for _, o := range res.Outcomes {
		blob, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		m[o.Key] = blob
	}
	return m
}

// TestStoreCacheMatchesMemoryCache is the store's differential test:
// the same grid through an in-memory cache and a segment-store cache
// must produce byte-identical results, cold and warm, with the warm
// store rerun 100% hits after a reopen.
func TestStoreCacheMatchesMemoryCache(t *testing.T) {
	t.Parallel()
	g := smallGrid()
	memRes, err := (&Engine{Cache: NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := memRes.Err(); err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(t.TempDir(), "store")
	storeCache, err := OpenCache(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	storeRes, err := (&Engine{Cache: storeCache}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := storeRes.Err(); err != nil {
		t.Fatal(err)
	}
	if storeRes.Stats.Simulated != storeRes.Stats.Points {
		t.Errorf("store cold run stats wrong: %+v", storeRes.Stats)
	}

	wantBytes := marshalCorpus(t, memRes)
	gotBytes := marshalCorpus(t, storeRes)
	if len(wantBytes) != len(gotBytes) {
		t.Fatalf("corpus sizes differ: memory %d, store %d", len(wantBytes), len(gotBytes))
	}
	for k, want := range wantBytes {
		if got := gotBytes[k]; !bytes.Equal(got, want) {
			t.Errorf("result %s differs between memory and store runs\n got: %s\nwant: %s", k, got, want)
		}
	}
	if err := storeCache.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh open of the store directory: warm rerun is 100% hits, zero
	// simulation, and the served results marshal to the same bytes.
	reopened, err := OpenCache(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != len(wantBytes) {
		t.Fatalf("reopened store has %d entries, want %d", reopened.Len(), len(wantBytes))
	}
	warm, err := (&Engine{Cache: reopened}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != warm.Stats.Points || warm.Stats.Simulated != 0 {
		t.Errorf("warm store rerun stats wrong: %+v", warm.Stats)
	}
	for k, got := range marshalCorpus(t, warm) {
		if !bytes.Equal(got, wantBytes[k]) {
			t.Errorf("warm result %s drifted from memory-cache bytes", k)
		}
	}
}

// TestStoreCacheMigratesLegacyJSON: a legacy single-file cache (one
// JSON object mapping content keys to Results) inside a fresh store
// directory, or beside it as "<dir>.json", is imported byte-for-byte
// on first open. The second case is opened by its .json name, the way
// "-cache sweep-cache.json" reaches OpenCache.
func TestStoreCacheMigratesLegacyJSON(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	g := smallGrid()
	res, err := (&Engine{Cache: NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalCorpus(t, res)
	legacy := make(map[string]*pipeline.Result, len(res.Outcomes))
	for _, o := range res.Outcomes {
		legacy[o.Key] = o.Result
	}
	blob, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: the legacy file lives inside the new store directory.
	inside := filepath.Join(dir, "store-a")
	if err := os.MkdirAll(inside, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(inside, "cache.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Case 2: the store directory is named after the legacy file —
	// sweepd's old <state>/cache.json becoming <state>/cache, or a CLI's
	// sweep-cache.json becoming sweep-cache.
	outside := filepath.Join(dir, "cache.json")
	if err := os.WriteFile(outside, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{inside, outside} {
		c, err := OpenCache(path)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != len(want) {
			t.Fatalf("%s: migrated %d entries, want %d", path, c.Len(), len(want))
		}
		var buf bytes.Buffer
		if err := c.Export(&buf); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(&buf)
		seen := 0
		for dec.More() {
			var rec struct {
				Key    string          `json:"key"`
				Result json.RawMessage `json:"result"`
			}
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Result, want[rec.Key]) {
				t.Errorf("%s: migrated %s drifted from legacy bytes", path, rec.Key)
			}
			seen++
		}
		if seen != len(want) {
			t.Errorf("%s: export streamed %d records, want %d", path, seen, len(want))
		}
		// Warm rerun through the migrated store: all hits.
		warm, err := (&Engine{Cache: c}).Run(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.CacheHits != warm.Stats.Points || warm.Stats.Simulated != 0 {
			t.Errorf("%s: migrated warm rerun stats wrong: %+v", path, warm.Stats)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "cache")); err != nil || !fi.IsDir() {
		t.Fatalf("cache.json did not open the store directory beside it: %v", err)
	}
}

// TestStoreCacheRepairsCorruptRecord flips one byte of a stored record
// while the cache is open. The lookup that trips the CRC check must
// count a store error and miss; the re-simulated result must replace
// the bad record, so later runs — on this cache and after a reopen —
// are hits again, byte-identical to the original.
func TestStoreCacheRepairsCorruptRecord(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "store")
	pts := testPoints(1)
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Engine{Cache: c}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want := marshalCorpus(t, first)

	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, seg := range segs {
		blob, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) == 0 {
			continue
		}
		blob[len(blob)/2] ^= 0xff
		if err := os.WriteFile(seg, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped != 1 {
		t.Fatalf("corrupted %d segments, want the one holding the record", flipped)
	}

	for run := 0; run < 3; run++ {
		res, err := (&Engine{Cache: c}).RunPoints(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSim := 0
		if run == 0 {
			wantSim = 1
		}
		if res.Stats.Simulated != wantSim || res.Stats.CacheHits != 1-wantSim {
			t.Fatalf("run %d: %+v, want %d simulated", run, res.Stats, wantSim)
		}
		if n := c.Stats().StoreErrors; n != 1 {
			t.Fatalf("run %d: store errors %d, want 1", run, n)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Open truncates a segment at its first bad frame, taking the
	// repair appended behind the flipped byte with it, so the first
	// run after a reopen may simulate the point once more. From then
	// on it is served, byte-identical, with no unreadable record left.
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := (&Engine{Cache: reopened}).RunPoints(pts, nil); err != nil {
		t.Fatal(err)
	}
	warm, err := (&Engine{Cache: reopened}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != 1 || reopened.Stats().StoreErrors != 0 {
		t.Fatalf("after reopen: %+v, store errors %d", warm.Stats, reopened.Stats().StoreErrors)
	}
	for k, got := range marshalCorpus(t, warm) {
		if !bytes.Equal(got, want[k]) {
			t.Errorf("repaired result %s drifted", k)
		}
	}
}

// TestCacheExportImportRoundTrip proves export → import into a fresh
// store reproduces the exact stream, and that import honors the
// skip/overwrite contract.
func TestCacheExportImportRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	src, err := OpenCache(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, err := (&Engine{Cache: src}).Run(smallGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := src.Export(&first); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("export produced no bytes")
	}

	dst, err := OpenCache(filepath.Join(dir, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	added, skipped, err := dst.Import(bytes.NewReader(first.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if added != src.Len() || skipped != 0 {
		t.Fatalf("import added %d skipped %d, want %d/0", added, skipped, src.Len())
	}
	var second bytes.Buffer
	if err := dst.Export(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("export → import → export is not byte-identical")
	}

	// Re-importing skips everything; -import-overwrite re-adds.
	added, skipped, err = dst.Import(bytes.NewReader(first.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || skipped != src.Len() {
		t.Fatalf("re-import added %d skipped %d, want 0/%d", added, skipped, src.Len())
	}
	added, _, err = dst.Import(bytes.NewReader(first.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if added != src.Len() {
		t.Fatalf("overwrite import added %d, want %d", added, src.Len())
	}
	// Overwriting doubled the records; compaction shrinks the store
	// back without changing the corpus.
	if _, err := dst.Compact(true); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := dst.Export(&third); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), third.Bytes()) {
		t.Error("compaction after overwrite import changed the corpus")
	}
}

// TestStoreCacheSaveIsIncremental: Save after one new Put must not
// rewrite the corpus — on-disk bytes grow by one record, not double.
func TestStoreCacheSaveIsIncremental(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "store")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := &pipeline.Result{Cycles: 1, Committed: 100}
	for i := 0; i < 50; i++ {
		c.Put(strings.Repeat("k", 8)+string(rune('a'+i%26))+string(rune('a'+i/26)), res)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	c.Put("one-more-key", res)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	after := dirBytes(t, dir)

	blob, _ := json.Marshal(res)
	// One frame: varint length + type byte + key framing + value + CRC.
	maxGrowth := int64(len(blob)) + 64
	if growth := after - before; growth <= 0 || growth > maxGrowth {
		t.Errorf("save after one put grew the store by %d bytes (want (0, %d]): not O(1)",
			growth, maxGrowth)
	}
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestStoreCacheConcurrent drives Get/Put/Save/Stats from many
// goroutines; with -race this is the cache-over-store race check.
func TestStoreCacheConcurrent(t *testing.T) {
	t.Parallel()
	c, err := OpenCache(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := &pipeline.Result{Cycles: 7}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := strings.Repeat("x", 4) + string(rune('a'+w)) + string(rune('a'+i%26))
				c.Put(key, res)
				if _, ok := c.Get(key); !ok {
					t.Errorf("lost own write %q", key)
					return
				}
				if i%10 == 0 {
					if err := c.Save(); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheGC checks a store-backed cache drops exactly the keys the
// predicate rejects, the same as an in-memory one.
func TestCacheGC(t *testing.T) {
	t.Parallel()
	res := &pipeline.Result{Cycles: 3}
	for _, mode := range []string{"memory", "store"} {
		c := NewCache()
		if mode == "store" {
			var err error
			if c, err = OpenCache(filepath.Join(t.TempDir(), "store")); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []string{"keep-a", "keep-b", "drop-a", "drop-b", "drop-c"} {
			c.Put(k, res)
		}
		removed, err := c.GC(func(k string) bool { return strings.HasPrefix(k, "keep-") })
		if err != nil {
			t.Fatalf("%s: GC: %v", mode, err)
		}
		if removed != 3 || c.Len() != 2 {
			t.Errorf("%s: GC removed %d (len %d), want 3 (len 2)", mode, removed, c.Len())
		}
		if _, ok := c.Get("drop-a"); ok {
			t.Errorf("%s: dropped key still served", mode)
		}
		if _, ok := c.Get("keep-a"); !ok {
			t.Errorf("%s: kept key lost", mode)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
