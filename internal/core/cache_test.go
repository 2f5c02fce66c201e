package core

import (
	"strings"
	"sync"
	"testing"

	"streamit/internal/exec"
)

const cacheTestSrc = `
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() { add Src(); add Out(); }
`

func TestCacheHitReturnsSameCompiled(t *testing.T) {
	cc := NewCache()
	a, hit, err := cc.CompileSource(cacheTestSrc, "Main", Options{})
	if err != nil {
		t.Fatalf("first compile: %v", err)
	}
	if hit {
		t.Fatal("first compile reported a cache hit")
	}
	b, hit, err := cc.CompileSource(cacheTestSrc, "Main", Options{})
	if err != nil {
		t.Fatalf("second compile: %v", err)
	}
	if !hit {
		t.Fatal("second compile missed the cache")
	}
	if a != b {
		t.Fatal("cache hit returned a different *Compiled")
	}
	if entries, hits, misses := cc.Stats(); entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 1)", entries, hits, misses)
	}
}

func TestCacheKeyedByTopAndOptions(t *testing.T) {
	cc := NewCache()
	a, _, err := cc.CompileSource(cacheTestSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, hit, err := cc.CompileSource(cacheTestSrc, "Main", Options{MaxLiveItems: 999})
	if err != nil {
		t.Fatal(err)
	}
	if hit || a == b {
		t.Fatal("different options shared one cache entry")
	}
	if entries, _, _ := cc.Stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

func TestCacheRemembersErrors(t *testing.T) {
	cc := NewCache()
	_, _, err := cc.CompileSource("void->void pipeline Main() {}", "Main", Options{})
	if err == nil {
		t.Fatal("empty pipeline compiled")
	}
	_, hit, err2 := cc.CompileSource("void->void pipeline Main() {}", "Main", Options{})
	if err2 == nil || !hit {
		t.Fatalf("second attempt: hit=%v err=%v; want cached error", hit, err2)
	}
	if err.Error() != err2.Error() {
		t.Fatalf("cached error %q differs from original %q", err2, err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	cc := NewCache()
	const goroutines = 32
	results := make([]*Compiled, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, err := cc.CompileSource(cacheTestSrc, "Main", Options{})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different *Compiled objects")
		}
	}
	if entries, _, misses := cc.Stats(); entries != 1 || misses != 1 {
		t.Fatalf("entries=%d misses=%d, want 1 each (single-flight)", entries, misses)
	}
}

func TestCompiledSharedMemo(t *testing.T) {
	cc := NewCache()
	c, _, err := cc.CompileSource(cacheTestSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Shared(exec.BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Shared(exec.BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Shared rebuilt the bundle for the same backend")
	}
	iv, err := c.Shared(exec.BackendInterp)
	if err != nil {
		t.Fatal(err)
	}
	if iv == a {
		t.Fatal("different backends share one bundle")
	}
	if exec.GraphFingerprint(c.Graph, c.Schedule) != a.Fingerprint() {
		t.Fatal("Compiled and Shared fingerprints disagree")
	}
}

func TestCachedCompileSourceDefault(t *testing.T) {
	// Distinct source text so the process-wide DefaultCache cannot collide
	// with other tests.
	src := strings.Replace(cacheTestSrc, "n + 1", "n + 2", 1)
	a, _, err := CachedCompileSource(src, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, hit, err := CachedCompileSource(src, "Main", Options{})
	if err != nil || !hit || a != b {
		t.Fatalf("DefaultCache reuse failed: hit=%v err=%v same=%v", hit, err, a == b)
	}
}
