// Compiled-program cache: source text in, reusable compiled artifacts out.
// Compilation (parse, elaborate, flatten, schedule) and backend lowering
// (VM bytecode per kernel, init-state prototypes) both run once per
// distinct program; everything downstream — engines, mapped plans,
// server sessions — shares the immutable results. The streaming server
// leans on this for session fan-out and hot reload, and streamit-run's
// -repeat flag demonstrates the same reuse from the CLI.
package core

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"streamit/internal/exec"
)

// Cache memoizes CompileSource results by source text, top-level stream,
// and compile options. It is safe for concurrent use. Entries are never
// evicted: a cache holds one entry per distinct program a process serves,
// which is small by construction.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
	// hits and misses are the cache's lifetime counters (see Stats).
	hits, misses int64
}

type cacheKey struct {
	srcHash [sha256.Size]byte
	top     string
	opts    string
}

type cacheEntry struct {
	once sync.Once
	c    *Compiled
	err  error
}

// NewCache returns an empty compiled-program cache.
func NewCache() *Cache { return &Cache{m: map[cacheKey]*cacheEntry{}} }

// DefaultCache is the process-wide cache used by CachedCompileSource.
var DefaultCache = NewCache()

// optsKey canonicalizes Options into a comparable cache-key component.
func optsKey(opts Options) string {
	lin := "nil"
	if opts.Linear != nil {
		lin = fmt.Sprintf("%+v", *opts.Linear)
	}
	return fmt.Sprintf("linear=%s maxlive=%d feedback=%t", lin, opts.MaxLiveItems, opts.CheckFeedback)
}

// CompileSource returns the compiled form of src, compiling at most once
// per distinct (source, top, options) triple even under concurrent
// callers. The second result reports whether this call hit the cache.
func (cc *Cache) CompileSource(src, top string, opts Options) (*Compiled, bool, error) {
	key := cacheKey{srcHash: sha256.Sum256([]byte(src)), top: top, opts: optsKey(opts)}
	cc.mu.Lock()
	e, hit := cc.m[key]
	if !hit {
		e = &cacheEntry{}
		cc.m[key] = e
	}
	if hit {
		cc.hits++
	} else {
		cc.misses++
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.c, e.err = CompileSource(src, top, opts) })
	if e.err != nil {
		return nil, hit, e.err
	}
	return e.c, hit, nil
}

// Stats returns the cache's lifetime entry, hit, and miss counts.
func (cc *Cache) Stats() (entries int, hits, misses int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.m), cc.hits, cc.misses
}

// CachedCompileSource is Cache.CompileSource on the process-wide
// DefaultCache.
func CachedCompileSource(src, top string, opts Options) (*Compiled, bool, error) {
	return DefaultCache.CompileSource(src, top, opts)
}

// Shared returns the compiled program's reusable execution-artifact
// bundle for the given backend (VM bytecode per kernel, init-state
// prototypes, ring geometry), building it on first use. Engines stamped
// from the bundle share all immutable artifacts; EngineOpts goes through
// here, so repeated engine construction over one Compiled never recompiles
// work functions.
func (c *Compiled) Shared(backend exec.Backend) (*exec.Shared, error) {
	c.sharedMu.Lock()
	defer c.sharedMu.Unlock()
	if c.shared == nil {
		c.shared = map[exec.Backend]*exec.Shared{}
	}
	if sh, ok := c.shared[backend]; ok {
		return sh, nil
	}
	sh, err := exec.NewShared(c.Graph, c.Schedule, backend)
	if err != nil {
		return nil, err
	}
	c.shared[backend] = sh
	return sh, nil
}
