package store

import (
	"fmt"
	"strings"
)

// OpenDSN opens a Backend named by a DSN of the form "scheme:rest":
//
//	seglog:DIR   the durable segmented log with group commit (OpenSegLog)
//	mem:         an in-memory store; nothing survives the process
//
//	faultinject:SCHEDULE:INNER_DSN
//	             a fault-injection wrapper around any of the above, failing
//	             scripted calls per SCHEDULE (see ParseFaultSchedule), e.g.
//	             faultinject:put@4-7:cache or
//	             faultinject:put~0.2/42:seglog:cache. An empty SCHEDULE
//	             injects nothing. For testing fault tolerance.
//
// A DSN with no recognizable scheme — a bare directory like "cache",
// "./cache" or "/tmp/cache", including Windows drive paths like "C:\cache"
// or "c:\cache" — opens seglog on that directory, so every pre-DSN store
// argument keeps working; a trials.jsonl left there by the retired JSONL
// engine is not read. The retired "jsonl:DIR" scheme is an error naming
// its bare-path replacement, and any other unknown lowercase scheme is an
// error naming the valid ones rather than a surprise directory with a
// colon in it.
func OpenDSN(dsn string) (Backend, error) {
	scheme, rest, ok := splitScheme(dsn)
	if !ok {
		scheme, rest = "seglog", dsn
	}
	switch scheme {
	case "seglog":
		if rest == "" {
			return nil, fmt.Errorf("store: DSN %q: seglog: needs a directory, e.g. seglog:cache", dsn)
		}
		return OpenSegLog(rest)
	case "mem":
		if rest != "" {
			return nil, fmt.Errorf("store: DSN %q: mem: takes no path", dsn)
		}
		return NewMem(), nil
	case "jsonl":
		return nil, fmt.Errorf("store: DSN %q: the jsonl engine is retired; pass the bare directory %q instead, which opens seglog and recomputes the trials of its trials.jsonl", dsn, rest)
	case "faultinject":
		schedule, inner, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("store: DSN %q: faultinject: want faultinject:SCHEDULE:INNER_DSN, e.g. faultinject:put@4-7:cache", dsn)
		}
		rules, err := ParseFaultSchedule(schedule)
		if err != nil {
			return nil, fmt.Errorf("store: DSN %q: %w", dsn, err)
		}
		b, err := OpenDSN(inner)
		if err != nil {
			return nil, err
		}
		return NewFaultInject(b, rules), nil
	default:
		return nil, fmt.Errorf("store: DSN %q: unknown scheme %q (valid: seglog:DIR, mem:, faultinject:SCHEDULE:INNER_DSN; a bare path means seglog)", dsn, scheme)
	}
}

// splitScheme splits "scheme:rest" when the text before the first colon is
// shaped like a scheme: two or more lowercase ASCII letters. Anything else
// — no colon, "./x", a drive letter like "C:\x" or "c:\x", an empty
// prefix — is not a scheme, so the whole string reads as a bare path.
func splitScheme(dsn string) (scheme, rest string, ok bool) {
	i := strings.IndexByte(dsn, ':')
	if i < 2 {
		return "", "", false
	}
	for _, c := range dsn[:i] {
		if c < 'a' || c > 'z' {
			return "", "", false
		}
	}
	return dsn[:i], dsn[i+1:], true
}
