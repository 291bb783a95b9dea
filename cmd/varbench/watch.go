package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"varbench"
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
		tailer   varbench.LineTailer
		batchA   []float64
		batchB   []float64
		badLines int
		rendered int // pair count at the last interim render
		buf      = make([]byte, 64*1024)
	)
	emit := func(line []byte) error {
		a, b, ok, err := varbench.ParseScorePair(line)
		if err != nil {
			badLines++
			fmt.Fprintf(os.Stderr, "varbench: %s: skipping %v\n", *file, err)
			return nil
		}
		if ok {
			batchA = append(batchA, a)
			batchB = append(batchB, b)
		}
		return nil
	}
	// flush folds the batched pairs into the stream and renders an interim
	// conclusion when -every is due.
	flush := func() error {
		if len(batchA) == 0 {
			return nil
		}
		res, err := stream.Extend(batchA, batchB)
		batchA, batchB = batchA[:0], batchB[:0]
		if err != nil {
			return err
		}
		if res != nil && *every > 0 && stream.N() >= rendered+*every {
			rendered = stream.N()
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
		if badLines > 0 && *format == "text" {
			if _, err := fmt.Fprintf(w, "skipped: %d malformed line(s) — not part of the analysis\n", badLines); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		n, readErr := f.Read(buf)
		if n > 0 {
			if err := tailer.Feed(buf[:n], emit); err != nil {
				return err
			}
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
	if rem := tailer.Remainder(); len(rem) > 0 {
		if err := emit(rem); err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
	}
	if badLines > 0 {
		fmt.Fprintf(os.Stderr, "varbench: %s: %d malformed line(s) skipped\n", *file, badLines)
	}
	return final()
}
