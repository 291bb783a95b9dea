// The seglog backend: a segmented binary record log with group-commit
// coalescing, and the only durable engine. Put appends the encoded record
// to an in-memory batch and returns after updating the index; a committer
// goroutine writes and fsyncs the batch when a size threshold or
// coalescing interval elapses (group commit — many logical appends, one
// write+fsync), and Flush/Close are explicit barriers. In exchange for the
// documented durability window, Put is a memcpy under a mutex rather than
// a syscall, so persistence stays off the hot path even when trials are
// cheap or arrive from a many-worker fleet.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"varbench/internal/jsonx"
)

// Segment files are named seg-%08d.log; the zero-padded index makes
// lexical order replay order. The LOCK file guards the whole directory.
const (
	segPrefix   = "seg-"
	segSuffix   = ".log"
	segLockName = "LOCK"
)

// Frame layout: u32 payload length, u32 CRC-32C of the payload, payload.
// Payload: u8 kind, u32 key length, key, u32 fingerprint length,
// fingerprint, value (8 little-endian float bits for scores, raw JSON for
// payloads). All integers little-endian.
const (
	segFrameHeader = 8
	segKindScore   = 1
	segKindJSON    = 2
	// segMaxPayload bounds a frame's declared size; a larger declaration
	// is framing corruption, not an allocation request.
	segMaxPayload = 1 << 30
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// segCfg is a SegLog's group-commit and rotation policy.
type segCfg struct {
	// flushBytes is the pending-batch size that triggers an immediate
	// group commit.
	flushBytes int
	// flushInterval is how long the committer coalesces appends before
	// committing a non-empty batch. It bounds the durability window: a
	// crash loses at most the appends of the last interval.
	flushInterval time.Duration
	// segmentBytes is the size at which the active segment is sealed and a
	// new one started.
	segmentBytes int64
}

// defaultSegCfg is the policy every OpenSegLog runs with.
var defaultSegCfg = segCfg{
	flushBytes:    256 << 10,
	flushInterval: 2 * time.Millisecond,
	segmentBytes:  64 << 20,
}

// SegLog is the segmented binary-log Backend with group-commit coalescing.
// All methods are safe for concurrent use. See OpenSegLog and the Backend
// contract in backend.go for the durability model.
type SegLog struct {
	dir string
	cfg segCfg

	mu   sync.Mutex
	cond *sync.Cond // broadcast when committed advances, err sets, or Close drains
	idx  index

	pending   [][]byte // frames accepted but not yet handed to the committer, in chunks
	batched   int      // bytes in pending
	spare     [][]byte // written chunks, emptied: the buffers of later batches
	accepted  int64    // total frame bytes accepted since Open
	committed int64    // total frame bytes written+fsynced since Open
	err       error    // sticky commit error: later Put/Flush/Close report it
	closed    bool

	wake chan struct{} // first pending byte of a batch arrived
	kick chan struct{} // commit now: size threshold or Flush barrier
	quit chan struct{} // Close: drain and exit
	done chan struct{} // committer exited

	active     *os.File // the unsealed segment; owned by the committer after Open
	activeIdx  int
	activeSize int64
	lockf      *os.File

	hits   atomic.Int64
	misses atomic.Int64
}

// OpenSegLog creates dir if needed, replays its segments into the index,
// repairs a torn tail in the final segment, and starts the group
// committer. One PROCESS owns a seglog at a time: an exclusive advisory
// lock on dir/LOCK fails fast with ErrLocked when another live process
// holds it, which is what makes the tail repair safe. A torn or
// CRC-failing frame at the end of the FINAL segment is the signature of a
// crash mid-commit and is truncated away; the same damage in a sealed
// (non-final) segment is real corruption — a sealed segment was fully
// committed before its successor existed — and is reported, never guessed
// at.
//
// Puts commit in batches of up to 256 KiB or every 2ms, whichever comes
// first, into segments of 64 MiB. A SIGKILL can therefore lose the last
// ≤2ms of accepted Puts; a resumed run recomputes them deterministically.
//
// Segments are the only files an open reads. A dir/trials.jsonl left by
// the retired JSONL engine is neither read, locked nor renamed: its cells
// are recomputed, to the same values, by the next run.
func OpenSegLog(dir string) (*SegLog, error) {
	return openSegLog(dir, defaultSegCfg)
}

// openSegLog is OpenSegLog with an explicit policy, for tests that need
// tiny segments or a long coalescing window.
func openSegLog(dir string, cfg segCfg) (*SegLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(dir, segLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(lockf); err != nil {
		lockf.Close()
		return nil, err
	}
	s := &SegLog{
		dir:   dir,
		cfg:   cfg,
		wake:  make(chan struct{}, 1),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		lockf: lockf,
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.load(); err != nil {
		lockf.Close()
		return nil, err
	}
	go s.committer()
	return s, nil
}

// segName formats the file name of segment n.
func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segments lists the segment indices present in dir, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ns []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &n); err != nil || n < 1 {
			return nil, fmt.Errorf("store: %s: unrecognized segment name %q", dir, name)
		}
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns, nil
}

// load replays every segment into the index and opens the final one for
// appending, truncating a torn tail first.
func (s *SegLog) load() error {
	final, good, torn, err := replay(s.dir, &s.idx)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, segName(final))
	if torn {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("store: %s: truncating torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.activeIdx = final
	s.activeSize = int64(good)
	return nil
}

// replay indexes the intact frames of every segment in dir into idx, in
// log order, and writes nothing. It returns the final segment's number
// (1, not yet created, when dir holds none), the offset after its last
// intact frame, and whether bytes follow that offset: a torn tail, the
// signature of a crash mid-commit. The same damage in a sealed segment is
// corruption, and an error.
func replay(dir string, idx *index) (final, good int, torn bool, err error) {
	ns, err := segments(dir)
	if err != nil {
		return 0, 0, false, err
	}
	final = 1
	for i, n := range ns {
		path := filepath.Join(dir, segName(n))
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, false, fmt.Errorf("store: %w", err)
		}
		good, err = idx.replaySegment(path, data)
		if err != nil && i < len(ns)-1 {
			return 0, 0, false, err // sealed segment: corruption, not a torn tail
		}
		final, torn = n, err != nil
	}
	return final, good, torn, nil
}

// replaySegment indexes every intact frame of one segment and returns the
// byte offset after the last intact frame, plus the error that stopped the
// scan (nil when the segment ends exactly on a frame boundary). It sizes
// the table once, from frameCount, and indexes a score frame with no
// allocation of its own; a payload frame copies its payload.
func (x *index) replaySegment(path string, data []byte) (int, error) {
	x.reserve(frameCount(data))
	off := 0
	for off < len(data) {
		kind, key, fp, value, n, err := decodeFrame(data[off:])
		if err != nil {
			return off, fmt.Errorf("store: %s: offset %d: %w", path, off, err)
		}
		var v float64
		var raw []byte
		if kind == segKindScore {
			v = math.Float64frombits(binary.LittleEndian.Uint64(value))
		} else {
			raw = append([]byte(nil), value...)
		}
		f := intern(x, fp)
		put(x, cellHashBytes(key, f), f, kind, key, v, raw)
		off += n
	}
	return off, nil
}

// frameCount counts the frames whose length fields chain from the start of
// data, stopping at the first implausible length or at a frame that runs
// past the end. It checks no checksum, so it bounds the intact frames from
// above, and it can count no more frames than data holds (one per 17 bytes
// at most): replay's only capacity hint never comes from a length a torn
// frame declares.
func frameCount(data []byte) int {
	n := 0
	for off := 0; len(data)-off >= segFrameHeader; n++ {
		payload := int(binary.LittleEndian.Uint32(data[off:]))
		if payload < 9 || payload > segMaxPayload || payload > len(data)-off-segFrameHeader {
			break
		}
		off += segFrameHeader + payload
	}
	return n
}

// frameSize is the size of the frame appendFrame encodes.
func frameSize(key, fp string, value []byte) int {
	return segFrameHeader + 1 + 4 + len(key) + 4 + len(fp) + len(value)
}

// appendFrame encodes one record as a length-prefixed, checksummed frame
// appended to dst.
func appendFrame(dst []byte, kind byte, key, fp string, value []byte) []byte {
	payload := frameSize(key, fp, value) - segFrameHeader
	start := len(dst)
	var scratch [segFrameHeader]byte
	dst = append(dst, scratch[:]...) // length+CRC, patched below
	dst = append(dst, kind)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(key)))
	dst = append(dst, scratch[:4]...)
	dst = append(dst, key...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(fp)))
	dst = append(dst, scratch[:4]...)
	dst = append(dst, fp...)
	dst = append(dst, value...)
	body := dst[start+segFrameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, segCRC))
	return dst
}

// decodeFrame parses one frame from the head of data, returning its kind,
// its key, fingerprint and value (views into data: the 8 float bits of a
// score, or a JSON payload) and the frame's total size. A short,
// CRC-failing or malformed frame is an error; the caller decides whether
// that means a torn tail (truncate) or corruption (refuse).
func decodeFrame(data []byte) (kind byte, key, fp, value []byte, n int, err error) {
	if len(data) < segFrameHeader {
		return 0, nil, nil, nil, 0, fmt.Errorf("torn frame header (%d bytes)", len(data))
	}
	payload := int(binary.LittleEndian.Uint32(data[0:4]))
	if payload < 9 || payload > segMaxPayload {
		return 0, nil, nil, nil, 0, fmt.Errorf("implausible frame length %d", payload)
	}
	if len(data) < segFrameHeader+payload {
		return 0, nil, nil, nil, 0, fmt.Errorf("torn frame (%d of %d payload bytes)", len(data)-segFrameHeader, payload)
	}
	body := data[segFrameHeader : segFrameHeader+payload]
	if crc := crc32.Checksum(body, segCRC); crc != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, nil, nil, 0, fmt.Errorf("frame checksum mismatch")
	}
	kind = body[0]
	keyLen := int(binary.LittleEndian.Uint32(body[1:5]))
	if keyLen < 0 || 5+keyLen+4 > len(body) {
		return 0, nil, nil, nil, 0, fmt.Errorf("frame key length %d exceeds payload", keyLen)
	}
	key = body[5 : 5+keyLen]
	fpLen := int(binary.LittleEndian.Uint32(body[5+keyLen : 9+keyLen]))
	valOff := 9 + keyLen + fpLen
	if fpLen < 0 || valOff > len(body) {
		return 0, nil, nil, nil, 0, fmt.Errorf("frame fingerprint length %d exceeds payload", fpLen)
	}
	fp = body[9+keyLen : valOff]
	value = body[valOff:]
	switch kind {
	case segKindScore:
		if len(value) != 8 {
			return 0, nil, nil, nil, 0, fmt.Errorf("score frame with %d value bytes, want 8", len(value))
		}
	case segKindJSON:
	default:
		// A valid checksum over an unknown kind is a foreign or future
		// writer, not a torn append. The caller treats it like any other
		// decode failure: corruption in a sealed segment, torn tail in the
		// final one — safe either way, since tail truncation only drops
		// bytes our own committer never acknowledged.
		return 0, nil, nil, nil, 0, fmt.Errorf("unknown frame kind %d", kind)
	}
	return kind, key, fp, value, segFrameHeader + payload, nil
}

// Get returns the score recorded for (key, fingerprint), if any.
func (s *SegLog) Get(key, fingerprint string) (float64, bool) {
	s.mu.Lock()
	v, ok := s.idx.score(key, fingerprint)
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return 0, false
	}
	s.hits.Add(1)
	return v, true
}

// Put accepts one trial score: the record is visible to Get immediately
// and durable at the next group commit (size/interval policy, Flush or
// Close). A commit failure is sticky and reported by every later write.
func (s *SegLog) Put(key, fingerprint string, score float64) error {
	var value [8]byte
	binary.LittleEndian.PutUint64(value[:], math.Float64bits(score))
	return s.append(segKindScore, key, fingerprint, value[:], score, nil)
}

// GetJSON decodes the JSON payload recorded for (key, fingerprint) into v.
func (s *SegLog) GetJSON(key, fingerprint string, v any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.idx.payload(key, fingerprint)
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		s.misses.Add(1)
		return false, fmt.Errorf("store: %s: payload for %q: %w", s.dir, key, err)
	}
	s.hits.Add(1)
	return true, nil
}

// PutJSON accepts one JSON payload record; non-finite floats in v are
// encoded as null. Durability follows the same group-commit policy as Put.
func (s *SegLog) PutJSON(key, fingerprint string, v any) error {
	raw, err := jsonx.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.append(segKindJSON, key, fingerprint, raw, 0, raw)
}

// append stages one frame, whose value bytes are value, for the committer
// and indexes the cell's score v or payload raw. Index order equals log
// order because both happen under one critical section — the invariant
// that makes a replayed log agree with the live view.
func (s *SegLog) append(kind byte, key, fp string, value []byte, v float64, raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.dir, ErrClosed)
	}
	if s.err != nil {
		return s.err
	}
	wasEmpty := s.batched == 0
	s.stage(kind, key, fp, value)
	s.idx.set(kind, key, fp, v, raw)
	if s.batched >= s.cfg.flushBytes {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	} else if wasEmpty {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// batchChunk is the capacity of a pending chunk. Frames are staged in
// chunks that never move, so a burst of appends that outruns the committer
// copies nothing as it grows; a frame larger than a chunk gets its own.
const batchChunk = 64 << 10

// stage appends one frame to the pending batch: to its last chunk when that
// has room, or else to a new chunk, taken from spare when one is there.
func (s *SegLog) stage(kind byte, key, fp string, value []byte) {
	size := frameSize(key, fp, value)
	last := len(s.pending) - 1
	if last < 0 || cap(s.pending[last])-len(s.pending[last]) < size {
		var c []byte
		if n := len(s.spare); n > 0 && size <= batchChunk {
			c, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			c = make([]byte, 0, max(batchChunk, size))
		}
		s.pending = append(s.pending, c)
		last++
	}
	s.pending[last] = appendFrame(s.pending[last], kind, key, fp, value)
	s.batched += size
	s.accepted += int64(size)
}

// Len returns the number of distinct (key, fingerprint) cells.
func (s *SegLog) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.count("")
}

// CountPrefix returns the number of distinct cells whose key starts with
// prefix.
func (s *SegLog) CountPrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.count(prefix)
}

// Stats returns how many Get/GetJSON lookups hit and missed since Open.
func (s *SegLog) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Flush is the group-commit barrier: it returns once every append
// accepted before the call has been written and fsynced (or with the
// commit error that prevented that).
func (s *SegLog) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.dir, ErrClosed)
	}
	target := s.accepted
	for s.committed < target && s.err == nil && !s.closed {
		select {
		case s.kick <- struct{}{}:
		default:
		}
		s.cond.Wait()
	}
	return s.err
}

// Close drains the committer (a final group commit), closes the active
// segment and releases the directory lock. Idempotent; later writes fail
// with ErrClosed while reads keep serving the index.
func (s *SegLog) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)
	<-s.done // the committer's exit path committed all pending frames

	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if s.active != nil {
		if cerr := s.active.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("store: %s: %w", s.dir, cerr)
		}
		s.active = nil
	}
	if s.lockf != nil {
		s.lockf.Close()
		s.lockf = nil
	}
	s.cond.Broadcast()
	return err
}

// committer is the single goroutine that turns accepted appends into
// write+fsync batches. Wake-up sources: the first pending byte (then a
// coalescing window of flushInterval), the size threshold or a Flush
// barrier (immediate), and Close (drain and exit).
func (s *SegLog) committer() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.commit()
			return
		case <-s.kick:
		case <-s.wake:
			// Coalesce: let the batch accumulate for one interval unless a
			// kick (threshold/Flush) or Close asks for the commit now.
			if s.cfg.flushInterval > 0 {
				timer := time.NewTimer(s.cfg.flushInterval)
				select {
				case <-timer.C:
				case <-s.kick:
					timer.Stop()
				case <-s.quit:
					timer.Stop()
					s.commit()
					return
				}
			}
		}
		s.commit()
	}
}

// commit writes the staged batch to the active segment, one write call per
// chunk, fsyncs it, publishes the new committed watermark and rotates the
// segment past the size threshold. Only the committer (and Close, after
// the committer exited) touches the file, so file I/O runs outside the
// lock. The written chunks, emptied, go back to spare as the next
// batches' buffers, up to twice the size threshold of them.
func (s *SegLog) commit() {
	s.mu.Lock()
	if s.batched == 0 || s.err != nil {
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	batch, size := s.pending, s.batched
	s.pending, s.batched = nil, 0
	target := s.accepted
	s.mu.Unlock()

	var err error
	for _, c := range batch {
		if _, werr := s.active.Write(c); werr != nil {
			err = fmt.Errorf("store: %s: %w", s.dir, werr)
			break
		}
	}
	if err == nil {
		if serr := s.active.Sync(); serr != nil {
			err = fmt.Errorf("store: %s: %w", s.dir, serr)
		}
	}
	if err == nil {
		s.activeSize += int64(size)
		if s.activeSize >= s.cfg.segmentBytes {
			err = s.rotate()
		}
	}

	s.mu.Lock()
	if err != nil {
		s.err = err
	} else {
		s.committed = target
	}
	for _, c := range batch {
		if cap(c) == batchChunk && (len(s.spare)+1)*batchChunk <= 2*s.cfg.flushBytes {
			s.spare = append(s.spare, c[:0])
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// rotate seals the active segment and starts the next one. Called by the
// committer only.
func (s *SegLog) rotate() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: %s: sealing segment: %w", s.dir, err)
	}
	s.activeIdx++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.activeIdx)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %s: opening segment: %w", s.dir, err)
	}
	s.active = f
	s.activeSize = 0
	return nil
}
