package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"didt/internal/telemetry"
)

func openTest(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// counter reads a store counter out of the registry snapshot.
func counter(t *testing.T, r *telemetry.Registry, name string) int64 {
	t.Helper()
	return r.Snapshot().Counters[name]
}

func TestEntryRoundTrip(t *testing.T) {
	body := []byte("rendered experiment output\nwith newlines\x00and binary\xff")
	enc := EncodeEntry("sweep|abc123", body)
	key, got, digest, err := DecodeEntry(enc)
	if err != nil {
		t.Fatalf("DecodeEntry: %v", err)
	}
	if key != "sweep|abc123" {
		t.Errorf("key = %q", key)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("body round-trip mismatch")
	}
	if digest != Digest(body) {
		t.Errorf("digest = %s, want %s", digest, Digest(body))
	}
	// Encoding is a pure function of (key, body).
	if !bytes.Equal(enc, EncodeEntry("sweep|abc123", body)) {
		t.Error("EncodeEntry not deterministic")
	}
}

func TestDecodeEntryRejectsDamage(t *testing.T) {
	body := []byte("the body bytes")
	enc := EncodeEntry("k1", body)
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated body", func(b []byte) []byte { return b[:len(b)-3] }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte{}, b...), "xx"...) }},
		{"bit flip in body", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[len(c)-2] ^= 0x40
			return c
		}},
		{"wrong magic", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[0] = 'X'
			return c
		}},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeEntry(tc.mut(append([]byte{}, enc...))); err == nil {
			t.Errorf("%s: DecodeEntry accepted damaged entry", tc.name)
		}
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to DecodeEntry, the parser every
// entry file read from disk goes through. It must never panic, and a
// successful decode must return the digest of the body it returns. The
// input's first line and the rest, taken as a key and a body, must also
// survive EncodeEntry: for any key the store accepts (non-empty, one
// line), decoding the encoding returns the same key, body and digest. The
// committed corpus holds valid, truncated, bit-flipped and bad-length
// entries; `go test -fuzz FuzzDecodeEntry ./internal/store` explores
// further.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, entry []byte) {
		if key, body, digest, err := DecodeEntry(entry); err == nil && digest != Digest(body) {
			t.Fatalf("decoded key %q with digest %s, but the body hashes to %s", key, digest, Digest(body))
		}
		key, body, _ := bytes.Cut(entry, []byte("\n"))
		if len(key) == 0 {
			return
		}
		gotKey, gotBody, digest, err := DecodeEntry(EncodeEntry(string(key), body))
		if err != nil {
			t.Fatalf("EncodeEntry(%q, %q) does not decode: %v", key, body, err)
		}
		if gotKey != string(key) || !bytes.Equal(gotBody, body) || digest != Digest(body) {
			t.Fatalf("EncodeEntry(%q, %q) decodes to (%q, %q, %s)", key, body, gotKey, gotBody, digest)
		}
	})
}

func TestETagStrongAndDistinct(t *testing.T) {
	e1 := ETag("k1", Digest([]byte("a")))
	e2 := ETag("k1", Digest([]byte("b")))
	e3 := ETag("k2", Digest([]byte("a")))
	if !strings.HasPrefix(e1, `"`) || !strings.HasSuffix(e1, `"`) {
		t.Errorf("ETag %q is not a quoted strong validator", e1)
	}
	if strings.HasPrefix(e1, `W/`) {
		t.Errorf("ETag %q is weak", e1)
	}
	if e1 == e2 || e1 == e3 {
		t.Errorf("ETag collisions: %q %q %q", e1, e2, e3)
	}
	if e1 != ETag("k1", Digest([]byte("a"))) {
		t.Error("ETag not deterministic")
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Registry: reg})
	body := []byte("result body")
	digest, err := s.Put("spec|deadbeef", body)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if digest != Digest(body) {
		t.Errorf("Put digest = %s, want %s", digest, Digest(body))
	}
	got, d, ok := s.Get("spec|deadbeef")
	if !ok || !bytes.Equal(got, body) || d != digest {
		t.Fatalf("Get = (%q, %s, %v), want stored body", got, d, ok)
	}
	if _, _, ok := s.Get("spec|other"); ok {
		t.Error("Get of absent key reported a hit")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if h := counter(t, reg, "store.results.hits"); h != 1 {
		t.Errorf("hits = %v, want 1", h)
	}
	if m := counter(t, reg, "store.results.misses"); m != 1 {
		t.Errorf("misses = %v, want 1", m)
	}
}

// TestStoreRestartRoundTrip is the durability contract: a new Store
// opened over a dead process's directory serves the same bytes.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{})
	body := []byte("bytes that must survive the process")
	if _, err := s1.Put("k", body); err != nil {
		t.Fatal(err)
	}
	// No Close: the Put path fsyncs, so simply abandoning s1 models a
	// kill. Reopen and expect a warm, byte-identical hit.
	reg := telemetry.NewRegistry()
	s2 := openTest(t, dir, Options{Registry: reg})
	got, d, ok := s2.Get("k")
	if !ok {
		t.Fatal("restarted store missed a durable entry")
	}
	if !bytes.Equal(got, body) {
		t.Errorf("restarted body differs:\n%q\nvs\n%q", got, body)
	}
	if d != Digest(body) {
		t.Errorf("digest %s, want %s", d, Digest(body))
	}
	if h := counter(t, reg, "store.results.hits"); h != 1 {
		t.Errorf("hits after restart = %v, want 1", h)
	}
}

// findEntryFile locates the single on-disk entry file.
func findEntryFile(t *testing.T, dir string) string {
	t.Helper()
	var path string
	filepath.Walk(filepath.Join(dir, "entries"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("no entry file on disk")
	}
	return path
}

func TestStoreTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := openTest(t, dir, Options{Registry: reg})
	if _, err := s.Put("k", []byte("a result body long enough to truncate")); err != nil {
		t.Fatal(err)
	}
	path := findEntryFile(t, dir)
	if err := os.Truncate(path, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if c := counter(t, reg, "store.results.corruptions"); c != 1 {
		t.Errorf("corruptions = %v, want 1", c)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still resident after quarantine")
	}
	// The key is reusable: a fresh Put then hits again.
	if _, err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Errorf("re-Put after quarantine: got (%q, %v)", got, ok)
	}
}

func TestStoreBitFlippedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := openTest(t, dir, Options{Registry: reg})
	if _, err := s.Put("k", []byte("body whose digest the flip breaks")); err != nil {
		t.Fatal(err)
	}
	path := findEntryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if c := counter(t, reg, "store.results.corruptions"); c != 1 {
		t.Errorf("corruptions = %v, want 1", c)
	}
}

func TestStoreTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{})
	if _, err := s1.Put("k", []byte("ages out")); err != nil {
		t.Fatal(err)
	}
	// Age the entry on disk, then reopen so the index reads the mtime.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(findEntryFile(t, dir), past, past); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s2 := openTest(t, dir, Options{TTL: time.Minute, Registry: reg})
	if _, _, ok := s2.Get("k"); ok {
		t.Fatal("expired entry served as a hit")
	}
	if e := counter(t, reg, "store.results.evictions_ttl"); e != 1 {
		t.Errorf("evictions_ttl = %v, want 1", e)
	}
	if s2.Len() != 0 {
		t.Errorf("Len = %d after expiry, want 0", s2.Len())
	}
}

func TestStoreCapacityEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := openTest(t, dir, Options{Capacity: 2, Registry: reg})
	for i, k := range []string{"k0", "k1", "k2"} {
		if _, err := s.Put(k, []byte(k+" body")); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so eviction order is unambiguous even on
		// coarse-grained filesystems.
		stamp := time.Now().Add(time.Duration(i-10) * time.Minute)
		name := entryName(k)
		if err := os.Chtimes(s.entryPath(name), stamp, stamp); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		meta := s.index[name]
		meta.mtime = stamp
		s.index[name] = meta
		s.mu.Unlock()
	}
	s.Sweep()
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after capacity sweep", s.Len())
	}
	if _, _, ok := s.Get("k0"); ok {
		t.Error("oldest entry k0 survived capacity eviction")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, _, ok := s.Get(k); !ok {
			t.Errorf("entry %s evicted out of order", k)
		}
	}
	if e := counter(t, reg, "store.results.evictions_capacity"); e < 1 {
		t.Errorf("evictions_capacity = %v, want >= 1", e)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	for _, k := range []string{"", "with\nnewline"} {
		if _, err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
	}
}

func TestStoreOverwriteSameKey(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if _, err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, _, ok := s.Get("k")
	if !ok || string(got) != "second" {
		t.Errorf("Get after overwrite = (%q, %v)", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}
