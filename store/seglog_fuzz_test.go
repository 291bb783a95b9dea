package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegLogRepairsTail throws arbitrary bytes at the seglog recovery
// path. OpenSegLog either rejects the directory with an error or returns a
// fully working store — never panics, and never leaves the final
// segment in a state a second OpenSegLog would refuse. Because the fuzzed bytes
// become the FINAL segment, every decode failure is by policy a torn tail;
// the frames before it must survive the truncation.
func FuzzSegLogRepairsTail(f *testing.F) {
	// One intact frame to prefix variants with.
	intact := appendFrame(nil, segKindScore, "k1", "f1", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte(nil))
	f.Add(append([]byte(nil), intact...))
	f.Add(append(append([]byte(nil), intact...), intact[:len(intact)-3]...)) // torn mid-frame
	f.Add(intact[:segFrameHeader])                                           // header only
	f.Add(intact[:3])                                                        // torn header
	f.Add([]byte{0xF0, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF})            // length > data
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00})            // implausible length
	func() {
		// A checksum-valid frame of unknown kind.
		bad := appendFrame(nil, 9, "k", "f", []byte("x"))
		f.Add(bad)
	}()

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegLog(dir)
		if err != nil {
			return // rejecting corruption is fine; crashing is not
		}
		// The repaired store must be fully usable: append, flush, read back.
		key := TrialKey(7, "fuzz-ds", 0, "A")
		fp := Fingerprint("fuzz")
		if err := s.Put(key, fp, 0.5); err != nil {
			t.Fatalf("Put on repaired store: %v", err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush on repaired store: %v", err)
		}
		if got, ok := s.Get(key, fp); !ok || got != 0.5 {
			t.Fatalf("Get after Put = (%v, %v), want (0.5, true)", got, ok)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// ...and the repair must be durable: a reopen has to succeed and
		// still serve the new record and any frame the first open indexed.
		s2, err := OpenSegLog(dir)
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer s2.Close()
		if got, ok := s2.Get(key, fp); !ok || got != 0.5 {
			t.Fatalf("Get after reopen = (%v, %v), want (0.5, true)", got, ok)
		}
	})
}
