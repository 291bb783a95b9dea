package store

// The backend conformance suite: every semantic the Backend doc comment
// promises, executed against every shipped backend. A new backend earns
// its place by adding a fixture here and passing unchanged.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// A backendFixture adapts one backend to the shared suite. open opens (or,
// for durable backends, reopens) the backend over dir; tear simulates a
// crash mid-commit by damaging the tail of the final log file, and is nil
// for backends with nothing durable to tear.
type backendFixture struct {
	name    string
	durable bool
	open    func(t *testing.T, dir string) Backend
	tear    func(t *testing.T, dir string)
}

func conformanceFixtures() []backendFixture {
	tearSegLog := func(t *testing.T, dir string) {
		ns, err := segments(dir)
		if err != nil || len(ns) == 0 {
			t.Fatalf("segments: %v (%d)", err, len(ns))
		}
		// A torn frame: a header promising more payload than follows.
		appendBytes(t, filepath.Join(dir, segName(ns[len(ns)-1])),
			[]byte{0xF0, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02})
	}
	return []backendFixture{
		{
			name: "mem",
			open: func(t *testing.T, dir string) Backend { return NewMem() },
		},
		{
			name:    "seglog",
			durable: true,
			open: func(t *testing.T, dir string) Backend {
				s, err := OpenSegLog(dir)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			tear: tearSegLog,
		},
		// The fault-injection wrapper with an empty schedule must be a
		// transparent proxy: the whole contract holds through it. Opened
		// through the DSN factory so the faultinject:SCHEDULE:INNER_DSN
		// parsing rides the suite too.
		{
			name:    "faultinject-seglog",
			durable: true,
			open: func(t *testing.T, dir string) Backend {
				s, err := OpenDSN("faultinject::seglog:" + dir)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			tear: tearSegLog,
		},
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// forEachBackend runs fn once per fixture as a named subtest.
func forEachBackend(t *testing.T, fn func(t *testing.T, fx backendFixture, dir string)) {
	for _, fx := range conformanceFixtures() {
		t.Run(fx.name, func(t *testing.T) { fn(t, fx, t.TempDir()) })
	}
}

// reopen closes b and, on durable backends, opens the same dir again to
// prove the state survived. Non-durable backends return the closed b so
// read-after-Close keeps being exercised.
func reopen(t *testing.T, fx backendFixture, dir string, b Backend) Backend {
	t.Helper()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !fx.durable {
		return b
	}
	return fx.open(t, dir)
}

func TestConformanceBasicRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		defer b.Close()
		key := TrialKey(7, "cifar", 3, "A")
		fp := Fingerprint("spec/v1")
		if _, ok := b.Get(key, fp); ok {
			t.Fatal("empty backend should miss")
		}
		if err := b.Put(key, fp, 0.8125); err != nil {
			t.Fatal(err)
		}
		if v, ok := b.Get(key, fp); !ok || v != 0.8125 {
			t.Fatalf("Get = %v, %v; want 0.8125, true", v, ok)
		}
		if hits, misses := b.Stats(); hits != 1 || misses != 1 {
			t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
		}
		if b.Len() != 1 {
			t.Errorf("Len = %d, want 1", b.Len())
		}
		if n := b.CountPrefix("trial/"); n != 1 {
			t.Errorf("CountPrefix(trial/) = %d, want 1", n)
		}
		if n := b.CountPrefix("analysis/"); n != 0 {
			t.Errorf("CountPrefix(analysis/) = %d, want 0", n)
		}
	})
}

func TestConformanceLastRecordWins(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		for i, v := range []float64{1, 2, 3} {
			if err := b.Put("k", "fp", v); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if v, ok := b.Get("k", "fp"); !ok || v != 3 {
			t.Fatalf("live Get = %v, %v; want 3", v, ok)
		}
		if b.Len() != 1 {
			t.Fatalf("Len = %d, want 1 (re-puts replace, not accumulate)", b.Len())
		}
		b = reopen(t, fx, dir, b)
		defer b.Close()
		if v, ok := b.Get("k", "fp"); !ok || v != 3 {
			t.Fatalf("reopened Get = %v, %v; want 3", v, ok)
		}
	})
}

func TestConformanceFingerprintRejection(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		defer b.Close()
		if err := b.Put("k", "fp-old", 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get("k", "fp-new"); ok {
			t.Fatal("stale record served under a different fingerprint")
		}
		if err := b.Put("k", "fp-new", 2); err != nil {
			t.Fatal(err)
		}
		if v, ok := b.Get("k", "fp-old"); !ok || v != 1 {
			t.Errorf("old cell lost: %v, %v", v, ok)
		}
		if v, ok := b.Get("k", "fp-new"); !ok || v != 2 {
			t.Errorf("new cell missing: %v, %v", v, ok)
		}
		// Counts span fingerprints: one key under two is two cells.
		if err := b.PutJSON("failure/k", "fp-old", map[string]int{"attempts": 1}); err != nil {
			t.Fatal(err)
		}
		b = reopen(t, fx, dir, b)
		defer b.Close()
		if n := b.Len(); n != 3 {
			t.Errorf("Len = %d, want 3", n)
		}
		if n := b.CountPrefix("k"); n != 2 {
			t.Errorf("CountPrefix(k) = %d, want 2", n)
		}
		if n := b.CountPrefix("failure/"); n != 1 {
			t.Errorf("CountPrefix(failure/) = %d, want 1", n)
		}
	})
}

func TestConformanceBitExactScores(t *testing.T) {
	scores := map[string]float64{
		"exact":  0.1 + 0.2, // 0.30000000000000004
		"tiny":   5e-324,
		"big":    1.7976931348623157e308,
		"neg":    math.Copysign(0, -1),
		"nan":    math.NaN(),
		"posinf": math.Inf(1),
		"neginf": math.Inf(-1),
	}
	check := func(t *testing.T, b Backend, when string) {
		t.Helper()
		for k, want := range scores {
			got, ok := b.Get(k, "fp")
			if !ok {
				t.Errorf("%s: %s missing", when, k)
				continue
			}
			if math.IsNaN(want) {
				if !math.IsNaN(got) {
					t.Errorf("%s: %s = %v, want NaN", when, k, got)
				}
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s = %x, want %x (not bit-identical)", when, k, got, want)
			}
		}
	}
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		for k, v := range scores {
			if err := b.Put(k, "fp", v); err != nil {
				t.Fatal(err)
			}
		}
		check(t, b, "live")
		b = reopen(t, fx, dir, b)
		defer b.Close()
		check(t, b, "reopened")
	})
}

func TestConformancePayloadIsolation(t *testing.T) {
	type payload struct {
		Name string    `json:"name"`
		P    float64   `json:"p"`
		Xs   []float64 `json:"xs"`
	}
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		in := payload{Name: "analysis", P: 0.97, Xs: []float64{1, 2}}
		if ok, err := b.GetJSON("k", "fp", &payload{}); ok || err != nil {
			t.Fatalf("empty GetJSON = %v, %v", ok, err)
		}
		if err := b.PutJSON("k", "fp", in); err != nil {
			t.Fatal(err)
		}
		if err := b.Put("score", "fp", 1); err != nil {
			t.Fatal(err)
		}
		// NaN payloads encode as null rather than failing the append.
		if err := b.PutJSON("k2", "fp", payload{P: math.NaN()}); err != nil {
			t.Fatalf("NaN payload: %v", err)
		}
		b = reopen(t, fx, dir, b)
		defer b.Close()
		var out payload
		if ok, err := b.GetJSON("k", "fp", &out); err != nil || !ok {
			t.Fatalf("GetJSON = %v, %v", ok, err)
		}
		if out.Name != in.Name || out.P != in.P || len(out.Xs) != 2 {
			t.Errorf("payload round-trip: %+v", out)
		}
		if _, ok := b.Get("k", "fp"); ok {
			t.Error("Get must not serve a JSON payload as a score")
		}
		if ok, _ := b.GetJSON("score", "fp", &out); ok {
			t.Error("GetJSON must not serve a score as a payload")
		}
		var nanOut payload
		if ok, err := b.GetJSON("k2", "fp", &nanOut); err != nil || !ok {
			t.Fatalf("NaN payload GetJSON = %v, %v", ok, err)
		}
		if nanOut.P != 0 {
			t.Errorf("NaN-as-null payload decoded to %v, want 0", nanOut.P)
		}
	})
}

func TestConformanceConcurrentPutGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		const n, workers = 200, 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					key := TrialKey(1, "ds", i, "A")
					if err := b.Put(key, "fp", float64(i)); err != nil {
						t.Error(err)
						return
					}
					if v, ok := b.Get(key, "fp"); !ok || v != float64(i) {
						t.Errorf("Get(%d) = %v, %v", i, v, ok)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if b.Len() != n {
			t.Errorf("live Len = %d, want %d", b.Len(), n)
		}
		b = reopen(t, fx, dir, b)
		defer b.Close()
		if b.Len() != n {
			t.Errorf("reopened Len = %d, want %d", b.Len(), n)
		}
	})
}

// TestConformanceCloseSemantics: Close is idempotent; afterwards writes
// fail with ErrClosed (checkable via errors.Is through any wrapping) while
// reads keep serving the in-memory index.
func TestConformanceCloseSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		b := fx.open(t, dir)
		if err := b.Put("k", "fp", 42); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
		if err := b.Put("k2", "fp", 1); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after Close = %v, want ErrClosed", err)
		}
		if err := b.PutJSON("k2", "fp", 1); !errors.Is(err, ErrClosed) {
			t.Errorf("PutJSON after Close = %v, want ErrClosed", err)
		}
		if err := b.Flush(); !errors.Is(err, ErrClosed) {
			t.Errorf("Flush after Close = %v, want ErrClosed", err)
		}
		if v, ok := b.Get("k", "fp"); !ok || v != 42 {
			t.Errorf("Get after Close = %v, %v; want 42 (reads keep serving)", v, ok)
		}
		if b.Len() != 1 {
			t.Errorf("Len after Close = %d, want 1", b.Len())
		}
	})
}

// TestConformanceCrashDurability: on durable backends, records accepted
// before a Flush survive a crash that tears the log tail mid-commit — the
// reopen repairs the tail instead of failing or losing flushed data.
func TestConformanceCrashDurability(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx backendFixture, dir string) {
		if !fx.durable {
			t.Skip("nothing durable to crash")
		}
		b := fx.open(t, dir)
		for i := 0; i < 10; i++ {
			if err := b.Put(TrialKey(1, "ds", i, "A"), "fp", float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		fx.tear(t, dir)
		b = fx.open(t, dir)
		defer b.Close()
		if b.Len() != 10 {
			t.Fatalf("Len after torn-tail reopen = %d, want 10", b.Len())
		}
		for i := 0; i < 10; i++ {
			if v, ok := b.Get(TrialKey(1, "ds", i, "A"), "fp"); !ok || v != float64(i) {
				t.Errorf("flushed record %d lost to tail repair: %v, %v", i, v, ok)
			}
		}
		// The repaired log accepts appends and survives another cycle.
		if err := b.Put(TrialKey(1, "ds", 10, "A"), "fp", 10); err != nil {
			t.Fatal(err)
		}
		b = reopen(t, fx, dir, b)
		defer b.Close()
		if b.Len() != 11 {
			t.Errorf("Len after post-repair append = %d, want 11", b.Len())
		}
	})
}
