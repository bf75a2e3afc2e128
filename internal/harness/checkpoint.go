package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xlate/internal/core"
	"xlate/internal/exper"
)

// The checkpoint is JSONL: a header line binding the journal to the
// run options, then one line per completed cell. Failed cells are
// never journaled, so a resumed run retries them. Go's encoding/json
// emits the shortest float64 representation, which round-trips
// exactly — resumed results render byte-identical tables.
//
// The journal is a StreamJournal: every append is one write plus an
// fsync, so a crash at any instant leaves at worst one torn final line.
// Without healing it, a truncated trailing line would poison -resume —
// the next run's appends would glue a fresh line onto the partial one,
// corrupting it and silently dropping every cell journaled after it. A
// resumed journal is therefore truncated to its valid prefix on open:
// the complete lines are kept, the partial line dropped.

const checkpointVersion = 1

type checkpointHeader struct {
	Version int     `json:"version"`
	Instrs  uint64  `json:"instrs"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
}

type checkpointCell struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// journal is the suite checkpoint over a StreamJournal. append is safe
// to call concurrently, and crucially without the suite lock — it
// fsyncs, and a disk barrier under the lock that gates every worker's
// result recording would stall the whole pool on one slow device.
type journal struct {
	stream *StreamJournal
}

// openJournal prepares the checkpoint at path. Without resume the
// journal starts fresh; with resume it continues an existing journal
// (loadCheckpoint has already validated its header), keeping only its
// complete lines so a torn tail cannot corrupt later appends.
func openJournal(path string, resume bool, opt exper.Options) (*journal, error) {
	var keep int64
	if resume {
		prev, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("harness: opening checkpoint: %w", err)
		}
		keep = int64(len(ValidLines(prev)))
	}
	stream, err := OpenStream(path, keep)
	if err != nil {
		return nil, err
	}
	j := &journal{stream: stream}
	if keep == 0 {
		hdr := checkpointHeader{Version: checkpointVersion, Instrs: opt.Instrs, Scale: opt.Scale, Seed: opt.Seed}
		b, err := json.Marshal(hdr)
		if err == nil {
			err = stream.Append(b)
		}
		if err != nil {
			j.close()
			return nil, fmt.Errorf("harness: checkpoint header: %w", err)
		}
	}
	return j, nil
}

// ValidLines returns the prefix of b holding complete, well-formed
// JSON lines — the longest prefix loadCheckpoint would accept. A torn
// tail (no newline) or a corrupt line ends the prefix; everything
// after it is dropped, matching what the loader resumes. Exported for
// the cluster journal, which validates record shape on top of this
// syntactic prefix before deciding to heal or refuse.
func ValidLines(b []byte) []byte {
	end := 0
	for off := 0; off < len(b); {
		i := bytes.IndexByte(b[off:], '\n')
		if i < 0 {
			break // torn tail
		}
		line := b[off : off+i]
		if !json.Valid(line) {
			break
		}
		off += i + 1
		end = off
	}
	return b[:end]
}

// syncDir fsyncs a directory so a just-created or just-truncated
// journal is durable. Errors are ignored: some filesystems reject
// directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort durability of the directory entry
	d.Close()
}

func (j *journal) append(key string, res core.Result) error {
	b, err := json.Marshal(checkpointCell{Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("harness: checkpoint encode: %w", err)
	}
	return j.stream.Append(b)
}

// close releases the file handle; every append is already durable.
// Closing twice is harmless.
func (j *journal) close() {
	j.stream.Close() //nolint:errcheck // a second close reports os.ErrClosed, nothing is lost
}

// StreamJournal is the repo's one journal: an append-only JSONL file
// where every record is durable the moment Append returns (single
// write, then fsync), so appends stay O(1) however long the journal
// grows. The suite checkpoint and the cluster coordinator's event
// journal both build on it. The torn-tail discipline: the caller
// validates the existing contents (ValidLines plus its own record
// checks) and passes the byte length of the prefix to keep —
// OpenStream truncates everything after it, so a later append can
// never glue onto a partial line.
type StreamJournal struct {
	f *os.File
}

// OpenStream opens (creating if needed) the journal at path for
// durable appends, first truncating it to keep bytes — the caller's
// validated prefix. The truncation itself is fsynced before the first
// append so a heal survives a crash too.
func OpenStream(path string, keep int64) (*StreamJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	if keep < 0 {
		keep = 0
	}
	if st.Size() > keep {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: healing journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: healing journal tail: %w", err)
		}
	}
	syncDir(filepath.Dir(path))
	return &StreamJournal{f: f}, nil
}

// Append writes one record line (the terminating newline is added) and
// fsyncs it. When Append returns nil the record is on disk; a crash at
// any instant leaves at worst one torn final line, which the next
// open's validated-prefix truncation heals. Append is safe for
// concurrent use: the record is a single Write, and *os.File serializes
// writes, so concurrent records never interleave.
func (s *StreamJournal) Append(line []byte) error {
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("harness: journal append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("harness: journal append: %w", err)
	}
	return nil
}

// Close releases the journal's file handle. The contents are already
// durable; Close exists so a restarted process can reopen the path.
func (s *StreamJournal) Close() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("harness: closing journal: %w", err)
	}
	return nil
}

// loadCheckpoint reads completed cells into the memo map, returning
// how many were loaded. A missing file resumes nothing; a header
// written under different options is an error — its results would be
// silently wrong for this run.
func (s *Suite) loadCheckpoint(opt exper.Options) (int, error) {
	f, err := os.Open(s.cfg.Checkpoint)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("harness: opening checkpoint: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<20)
	hdrLine, err := r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			return 0, nil // empty or torn header: nothing to resume
		}
		return 0, fmt.Errorf("harness: reading checkpoint: %w", err)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return 0, fmt.Errorf("harness: checkpoint %s: bad header: %w", s.cfg.Checkpoint, err)
	}
	if hdr.Version != checkpointVersion {
		return 0, fmt.Errorf("harness: checkpoint %s: version %d, want %d", s.cfg.Checkpoint, hdr.Version, checkpointVersion)
	}
	if hdr.Instrs != opt.Instrs || hdr.Scale != opt.Scale || hdr.Seed != opt.Seed {
		return 0, fmt.Errorf("harness: checkpoint %s was written with -instrs %d -scale %g -seed %d; rerun with those options or delete it",
			s.cfg.Checkpoint, hdr.Instrs, hdr.Scale, hdr.Seed)
	}
	n := 0
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			// EOF, possibly with a torn final line from an interrupted
			// append: the completed prefix is still valid.
			break
		}
		var cell checkpointCell
		if err := json.Unmarshal(line, &cell); err != nil {
			break
		}
		s.memo[cell.Key] = cell.Result
		n++
	}
	return n, nil
}
