package store

import (
	"errors"
	"strings"
	"testing"
)

func TestParseFaultSchedule(t *testing.T) {
	valid := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"  ;  ", 0},
		{"put@4", 1},
		{"put@4-7", 1},
		{"flush@2+", 1},
		{"get~0.25/42", 1},
		{"put@1;putjson@2-3;close@1;get~1/7", 4},
	}
	for _, tc := range valid {
		rules, err := ParseFaultSchedule(tc.in)
		if err != nil {
			t.Errorf("ParseFaultSchedule(%q): %v", tc.in, err)
			continue
		}
		if len(rules) != tc.want {
			t.Errorf("ParseFaultSchedule(%q): %d rules, want %d", tc.in, len(rules), tc.want)
		}
	}
	invalid := []string{
		"put", "put@", "put@0", "put@7-4", "put@x", "put@1-",
		"frobnicate@1", "put~0.5", "put~2/1", "put~-0.1/1", "put~0.5/x",
	}
	for _, in := range invalid {
		if _, err := ParseFaultSchedule(in); err == nil {
			t.Errorf("ParseFaultSchedule(%q): want error", in)
		}
	}
}

func TestFaultInjectCounterWindow(t *testing.T) {
	rules, err := ParseFaultSchedule("put@2-3")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultInject(NewMem(), rules)
	for i, wantErr := range []bool{false, true, true, false, false} {
		err := f.Put("k", "fp", float64(i))
		if gotErr := err != nil; gotErr != wantErr {
			t.Fatalf("put %d: err=%v, want fault=%v", i+1, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("put %d: %v is not ErrInjected", i+1, err)
		}
	}
	// The failed writes never reached the inner backend: the visible value
	// is from the last successful call.
	if v, ok := f.Get("k", "fp"); !ok || v != 4 {
		t.Fatalf("Get = %v, %v; want 4, true", v, ok)
	}
}

func TestFaultInjectOpenEnded(t *testing.T) {
	rules, err := ParseFaultSchedule("flush@2+")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultInject(NewMem(), rules)
	if err := f.Flush(); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	for i := 2; i <= 4; i++ {
		if err := f.Flush(); !errors.Is(err, ErrInjected) {
			t.Fatalf("flush %d: %v, want ErrInjected", i, err)
		}
	}
}

func TestFaultInjectGetFaultIsMiss(t *testing.T) {
	rules, err := ParseFaultSchedule("get@1")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultInject(NewMem(), rules)
	if err := f.Put("k", "fp", 7); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("k", "fp"); ok {
		t.Fatal("faulted Get reported a hit")
	}
	if v, ok := f.Get("k", "fp"); !ok || v != 7 {
		t.Fatalf("second Get = %v, %v; want 7, true", v, ok)
	}
}

func TestFaultInjectSeededDeterminism(t *testing.T) {
	run := func() []bool {
		rules, err := ParseFaultSchedule("put~0.5/42")
		if err != nil {
			t.Fatal(err)
		}
		f := NewFaultInject(NewMem(), rules)
		outcomes := make([]bool, 64)
		for i := range outcomes {
			outcomes[i] = f.Put("k", "fp", float64(i)) != nil
		}
		return outcomes
	}
	a, b := run(), run()
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: outcomes diverge across identical runs", i+1)
		}
		if a[i] {
			faults++
		}
	}
	// A 50% Bernoulli over 64 draws lands well inside (8, 56) — this guards
	// against a stream that is constant, not against exact probabilities.
	if faults <= 8 || faults >= 56 {
		t.Fatalf("%d/64 faults for rate 0.5: stream looks degenerate", faults)
	}
}

// TestFaultInjectCrashedClose scripts the torn-write-then-crash scenario:
// the final Put is rejected, Close reports an injected crash — but the
// inner log's flock must still be released, so a reopen succeeds and serves
// every write accepted before the fault.
func TestFaultInjectCrashedClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDSN("faultinject:put@3;close@1:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", "fp", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "fp", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", "fp", 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("third put: %v, want ErrInjected", err)
	}
	if err := s.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close: %v, want ErrInjected", err)
	}
	// The crashing close still released the lock: reopening plain works and
	// the accepted writes survived, the faulted one does not exist.
	re, err := OpenSegLog(dir)
	if err != nil {
		t.Fatalf("reopen after crashed close: %v", err)
	}
	defer re.Close()
	if v, ok := re.Get("a", "fp"); !ok || v != 1 {
		t.Fatalf("a = %v, %v; want 1, true", v, ok)
	}
	if v, ok := re.Get("b", "fp"); !ok || v != 2 {
		t.Fatalf("b = %v, %v; want 2, true", v, ok)
	}
	if _, ok := re.Get("c", "fp"); ok {
		t.Fatal("faulted write c is visible after reopen")
	}
}

func TestFaultInjectDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"faultinject:",            // no inner DSN
		"faultinject:put@1",       // no inner DSN either
		"faultinject:put@0:mem:",  // bad schedule
		"faultinject:nope@1:mem:", // unknown op
	} {
		if _, err := OpenDSN(dsn); err == nil {
			t.Errorf("OpenDSN(%q): want error", dsn)
		} else if !strings.Contains(err.Error(), "faultinject") && !strings.Contains(err.Error(), "fault schedule") {
			t.Errorf("OpenDSN(%q): unhelpful error %v", dsn, err)
		}
	}
}
