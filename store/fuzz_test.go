package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenRepairsTail throws arbitrary bytes at the legacy import as a
// directory's trials.jsonl. The contract under fuzzing: OpenSegLog either
// rejects the log with an error or imports it into a fully working store —
// never panics — and the import is final: a second open must succeed, must
// not find the legacy log again, and must serve a Put made after the
// import. The torn-tail rule (keep an intact unterminated final record,
// skip an unparseable one) is exactly the code a crashed pre-upgrade run
// depends on, so it must hold for every input, not just the truncations
// the unit tests enumerate.
func FuzzOpenRepairsTail(f *testing.F) {
	intact := `{"key":"k1","fp":"f1","score":"0x1p-1"}` + "\n"
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte(intact))
	f.Add([]byte(intact + `{"key":"k2","fp":"f2","sco`))        // torn mid-append
	f.Add([]byte(intact + `{"key":"k2","fp":"f2","score":""}`)) // intact, torn newline
	f.Add([]byte(`{"key":"k1"`))                                // torn first line
	f.Add([]byte("not json at all\n" + intact))                 // garbage mid-log
	f.Add([]byte(`{"key":"k1","fp":"f1","score":"NaN"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, legacyLogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegLog(dir)
		if err != nil {
			return // rejecting corruption is fine; crashing is not
		}
		// The imported store must be fully usable: append one record...
		key := TrialKey(7, "fuzz-ds", 0, "A")
		fp := Fingerprint("fuzz")
		if err := s.Put(key, fp, 0.5); err != nil {
			t.Fatalf("Put on imported store: %v", err)
		}
		if got, ok := s.Get(key, fp); !ok || got != 0.5 {
			t.Fatalf("Get after Put = (%v, %v), want (0.5, true)", got, ok)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// ...and the import must be final: a second open succeeds without
		// a legacy log to import and still serves the new record.
		if _, err := os.Stat(filepath.Join(dir, legacyLogName)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("legacy log still in place after import: %v", err)
		}
		s2, err := OpenSegLog(dir)
		if err != nil {
			t.Fatalf("reopen after import: %v", err)
		}
		defer s2.Close()
		if got, ok := s2.Get(key, fp); !ok || got != 0.5 {
			t.Fatalf("Get after reopen = (%v, %v), want (0.5, true)", got, ok)
		}
	})
}
