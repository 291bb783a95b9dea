package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"varbench"
	"varbench/internal/ingest"
)

// runWatch implements the `varbench watch` subcommand: the recommended
// test over a growing score file. Each line is one paired trial — `a,b`
// CSV or `{"a": .., "b": ..}` JSONL — and every batch of new lines is
// added to the win/tie/loss counts, so the live conclusion is always
// current without ever re-reading the history. With -follow the command
// tails the file like `tail -f`. The whole analysis is three counts and
// two sums: watch keeps no scores, so its memory does not grow with the
// file, and there is no store, since a rerun rebuilds the counts by
// reading the file again.
func runWatch(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("varbench watch", flag.ContinueOnError)
	file := fs.String("file", "", "score file to watch: a,b CSV or {\"a\":..,\"b\":..} JSONL lines (required)")
	follow := fs.Bool("follow", false, "keep tailing after EOF, analyzing lines as they are appended")
	every := fs.Int("every", 0, "render an interim conclusion every N new pairs (0: only the final one)")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval while following")
	gamma := fs.Float64("gamma", varbench.DefaultGamma, "meaningfulness threshold for P(A>B)")
	confidence := fs.Float64("confidence", varbench.DefaultConfidence, "bootstrap CI confidence level")
	bootstrap := fs.Int("bootstrap", varbench.DefaultBootstrap, "bootstrap resamples (ignored: watch computes the paired bootstrap's exact K → ∞ interval)")
	seed := fs.Uint64("seed", 1, "bootstrap seed (ignored: the paired interval draws no randomness)")
	format := fs.String("format", "text", "output format: text, json or csv")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: varbench watch -file scores.csv [-follow] [flags]")
		fmt.Fprintln(fs.Output(), "score lines: `a,b` CSV or `{\"a\": 0.91, \"b\": 0.87}` JSONL, one paired trial per line")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		fs.Usage()
		return fmt.Errorf("watch needs a -file to tail")
	}
	var ren varbench.Renderer
	switch *format {
	case "text":
		ren = varbench.TextRenderer{}
	case "json":
		ren = varbench.JSONRenderer{Indent: true}
	case "csv":
		ren = varbench.CSVRenderer{}
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", *format)
	}

	opts := []varbench.Option{
		varbench.WithGamma(*gamma),
		varbench.WithConfidence(*confidence),
		varbench.WithBootstrap(*bootstrap),
		varbench.WithSeed(*seed),
	}
	stream, err := varbench.NewStream(opts...)
	if err != nil {
		return err
	}
	defer stream.Close()

	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		rendered int // pair count at the last interim render
		buf      = make([]byte, 64*1024)
	)
	pairs := &pairReader{warn: func(err error) {
		fmt.Fprintf(os.Stderr, "varbench: %s: skipping %v\n", *file, err)
	}}
	// flush folds the pairs read so far into the stream and renders an
	// interim conclusion when -every is due; only then is an interval
	// computed.
	flush := func() error {
		if len(pairs.a) == 0 {
			return nil
		}
		err := stream.Add(pairs.a, pairs.b)
		pairs.a, pairs.b = pairs.a[:0], pairs.b[:0]
		if err != nil {
			return err
		}
		if *every > 0 && stream.N() >= 2 && stream.N() >= rendered+*every {
			rendered = stream.N()
			res, err := stream.Result()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "--- after %d pairs ---\n", stream.N())
			if err := res.Render(w, ren); err != nil {
				return err
			}
		}
		return nil
	}
	// final renders the conclusion over everything consumed. The
	// malformed-line count is part of the rendered summary — a conclusion
	// that silently dropped input lines is not the conclusion it claims to
	// be — for the text format; JSON/CSV output must stay machine-parseable,
	// so those formats keep the count on stderr only.
	final := func() error {
		if stream.N() < 2 {
			return fmt.Errorf("%s: %d score pairs is not enough to analyze (want ≥ 2)", *file, stream.N())
		}
		res, err := stream.Result()
		if err != nil {
			return err
		}
		if err := res.Render(w, ren); err != nil {
			return err
		}
		if pairs.bad > 0 && *format == "text" {
			if _, err := fmt.Fprintf(w, "skipped: %d malformed line(s) — not part of the analysis\n", pairs.bad); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		n, readErr := f.Read(buf)
		if n > 0 {
			pairs.feed(buf[:n])
			if err := flush(); err != nil {
				return err
			}
		}
		if readErr == io.EOF {
			if !*follow {
				break
			}
			// Tail mode: wait for more bytes, or for the interrupt. On
			// SIGINT/SIGTERM the conclusion so far is rendered, and the
			// context error propagates to main for the conventional
			// 128+signum exit code.
			select {
			case <-ctx.Done():
				if stream.N() >= 2 {
					if err := final(); err != nil {
						return err
					}
				}
				fmt.Fprintf(os.Stderr, "varbench: watch interrupted after %d pairs\n", stream.N())
				return ctx.Err()
			case <-time.After(*poll):
			}
			continue
		}
		if readErr != nil {
			return fmt.Errorf("%s: %w", *file, readErr)
		}
	}

	// End of a bounded file: a last line without a trailing newline still
	// counts.
	pairs.end()
	if err := flush(); err != nil {
		return err
	}
	if pairs.bad > 0 {
		fmt.Fprintf(os.Stderr, "varbench: %s: %d malformed line(s) skipped\n", *file, pairs.bad)
	}
	return final()
}

// A pairReader reads the chunks of a paired score log into pairs. A line
// in ParseScorePair's CSV form without spaces, two plain decimals and
// perhaps further columns, is framed and parsed in one pass by the scanner
// ParseScore uses. Every other line is cut at its newline, searched for
// from where that scan stopped, and handed to ParseScorePair, which says
// what it means; a line that a chunk edge cuts waits in a LineTailer.
// Both give the same pairs, in line order, and the same malformed-line
// count as LineTailer.Feed and ParseScorePair (FuzzWatchIngest).
type pairReader struct {
	tailer varbench.LineTailer
	a, b   []float64       // the pairs read since the caller last took them
	bad    int             // malformed lines so far
	warn   func(err error) // called with each malformed line's error
}

// parse is the per-line path: one line, without its terminator, through
// ParseScorePair.
func (r *pairReader) parse(line []byte) error {
	a, b, ok, err := varbench.ParseScorePair(line)
	if err != nil {
		r.bad++
		r.warn(err)
		return nil
	}
	if ok {
		r.a = append(r.a, a)
		r.b = append(r.b, b)
	}
	return nil
}

// feed reads one chunk. A partial line buffered from the previous chunk is
// completed through the tailer first; the line the chunk ends in, if it
// has no newline, waits in the tailer for the next chunk or for end. parse
// never fails, so neither does Feed here.
func (r *pairReader) feed(chunk []byte) {
	if len(r.tailer.Remainder()) > 0 {
		i := bytes.IndexByte(chunk, '\n') + 1
		if i == 0 {
			i = len(chunk)
		}
		_ = r.tailer.Feed(chunk[:i], r.parse)
		chunk = chunk[i:]
	}
	for len(chunk) > 0 {
		// pair: the line starts with `num,num`, the comma at c, and the
		// scans stopped at n, after the second number.
		a, c, okA := ingest.Scan(chunk)
		pair := c > 0 && c < len(chunk) && chunk[c] == ','
		n := c
		var b float64
		var okB bool
		if pair {
			var m int
			b, m, okB = ingest.Scan(chunk[c+1:])
			pair, n = m > 0, c+1+m
		}
		// The line's newline is at i, and no earlier than n.
		i := n
		switch {
		case i < len(chunk) && chunk[i] == '\n':
		case i+1 < len(chunk) && chunk[i] == '\r' && chunk[i+1] == '\n':
			i++
		default:
			j := bytes.IndexByte(chunk[n:], '\n')
			if j < 0 {
				_ = r.tailer.Feed(chunk, r.parse)
				return
			}
			// Further columns, which ParseScorePair ignores, keep the
			// line plain; anything else after the pair does not.
			pair, i = pair && chunk[n] == ',', n+j
		}
		// A number of more than 15 digits is valued only now that its
		// line is known to be plain.
		if pair && !okA {
			a, okA = ingest.Long(chunk[:c])
		}
		if pair && !okB {
			b, okB = ingest.Long(chunk[c+1 : n])
		}
		if pair && okA && okB {
			r.a = append(r.a, a)
			r.b = append(r.b, b)
		} else {
			_ = r.parse(trimCR(chunk[:i]))
		}
		chunk = chunk[i+1:]
	}
}

// trimCR strips one final "\r", as LineTailer does, so that a CRLF line
// reads like an LF one.
func trimCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// end reads the log's last line when it has no final newline.
func (r *pairReader) end() {
	if rem := r.tailer.Remainder(); len(rem) > 0 {
		_ = r.parse(rem)
	}
}
