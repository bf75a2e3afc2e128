package tracec

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"xlate/internal/addr"
	"xlate/internal/trace"
)

// maxSegmentBytes is the default bound on one ingested segment
// (decompressed): 64 MiB holds roughly 20–30 M references, far past
// the budgets the experiments run at.
const maxSegmentBytes = 64 << 20

// ErrBadTrace is wrapped by ingestion validation failures that are the
// client's fault: unknown magic, malformed records, zero-instruction
// pacing, empty streams. It maps to 400; ErrSegmentCorrupt (a damaged
// pre-compiled segment) does too.
var ErrBadTrace = errors.New("invalid trace stream")

// TraceInfo describes one ingested segment — the ingestion response
// and the /v1/traces listing entry. The Workload field is the name to
// submit jobs under ("trace:<key>"); the segment travels between
// cluster nodes by Key.
//
//eeat:wire
type TraceInfo struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Refs     uint64 `json:"refs"`
	Instrs   uint64 `json:"instrs"`
	Blocks   int    `json:"blocks"`
	Bytes    int64  `json:"bytes"`
}

// API serves the trace ingestion endpoints over a Store:
//
//	POST /v1/traces        ingest a reference stream (XLTRACE1 records
//	                       or a pre-compiled XLSEGv1 segment; chunked
//	                       bodies and Content-Encoding: gzip accepted;
//	                       413 past MaxBytes, 429 past MaxPending)
//	GET  /v1/traces/{key}  fetch a segment by content hash
//	                       (application/octet-stream, immutable ETag)
//
// Both the service daemon and the cluster coordinator mount it, so a
// stream ingested anywhere is fetchable by every node that learns its
// content hash.
type API struct {
	store    *Store
	maxBytes int64
	pending  chan struct{}
	logf     func(string, ...any)
}

// APIConfig bounds the ingestion endpoint.
type APIConfig struct {
	// MaxBytes caps one decompressed segment (default 64 MiB). Larger
	// uploads get 413.
	MaxBytes int64
	// MaxPending caps concurrent ingest decodes (default 2). Excess
	// uploads get 429 with Retry-After, mirroring the job queue's
	// admission control.
	MaxPending int
	// Logf receives ingest lines (nil = silent).
	Logf func(string, ...any)
}

// NewAPI builds the handler over store.
func NewAPI(store *Store, cfg APIConfig) *API {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = maxSegmentBytes
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &API{
		store:    store,
		maxBytes: cfg.MaxBytes,
		pending:  make(chan struct{}, cfg.MaxPending),
		logf:     cfg.Logf,
	}
}

func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/traces":
		a.ingest(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/traces/"):
		a.serveSegment(w, r, strings.TrimPrefix(r.URL.Path, "/v1/traces/"))
	default:
		writeError(w, http.StatusNotFound, "no such trace endpoint")
	}
}

// WorkloadName is the job-API name an ingested segment runs under.
func WorkloadName(key string) string { return "trace:" + key }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck // response write
}

// ingest is POST /v1/traces.
func (a *API) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a trace stream here")
		return
	}
	select {
	case a.pending <- struct{}{}:
		defer func() { <-a.pending }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "too many concurrent trace ingests")
		return
	}

	// Bound the raw body, then the decompressed stream: a gzip bomb hits
	// the decompressed limit, an oversized plain body the raw one — both
	// are 413, not OOM.
	body := io.Reader(http.MaxBytesReader(w, r.Body, a.maxBytes))
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad gzip stream: %v", err)
			return
		}
		defer gz.Close()
		body = gz
	}
	data, err := io.ReadAll(io.LimitReader(body, a.maxBytes+1))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte limit", a.maxBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading trace body: %v", err)
		return
	}
	if int64(len(data)) > a.maxBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte limit (decompressed)", a.maxBytes)
		return
	}

	segment, info, err := Ingest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := ContentKey(segment)
	if err := a.store.Put(key, segment); err != nil {
		writeError(w, http.StatusInternalServerError, "storing segment: %v", err)
		return
	}
	a.logf("ingested trace %s: %d refs, %d instrs, %d blocks, %d bytes",
		key[:12], info.Refs, info.Instrs, info.Blocks, len(segment))

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	resp := TraceInfo{
		Key:      key,
		Workload: WorkloadName(key),
		Refs:     info.Refs,
		Instrs:   info.Instrs,
		Blocks:   info.Blocks,
		Bytes:    int64(len(segment)),
	}
	b, _ := json.MarshalIndent(resp, "", "  ") //nolint:errcheck // plain struct
	w.Write(append(b, '\n'))                   //nolint:errcheck // response write
}

// serveSegment is GET /v1/traces/{key}. Segments are immutable by
// construction (the key is the content hash), so the cache headers
// mirror the result endpoint's immutable discipline.
func (a *API) serveSegment(w http.ResponseWriter, r *http.Request, key string) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "GET a segment here")
		return
	}
	etag := `"` + key + `"`
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := a.store.Get(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "max-age=31536000, immutable")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data) //nolint:errcheck // response write
}

// Ingest validates an uploaded stream and canonicalizes it into a
// segment. Two formats are accepted: the documented external trace
// format (XLTRACE1 varint records — what `eeatsim -record` writes) and
// an already-compiled XLSEGv1 segment. Validation is strict with typed
// errors: malformed records wrap ErrBadTrace, damaged segments wrap
// ErrSegmentCorrupt. In either format, every reference must carry at
// least one instruction — the generator's pacing invariant — or a
// replay could spin without consuming budget, and every address must
// be a canonical user address (addr.IsUser).
func Ingest(data []byte) ([]byte, SegmentInfo, error) {
	switch {
	case len(data) >= len(segMagic) && bytes.Equal(data[:len(segMagic)], segMagic):
	case bytes.HasPrefix(data, []byte("XLTRACE1\n")):
		refs, err := decodeExternal(data)
		if err != nil {
			return nil, SegmentInfo{}, err
		}
		if data, _, err = EncodeRefs(refs); err != nil {
			return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: %v", ErrBadTrace, err)
		}
	default:
		return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: unrecognized magic (want XLTRACE1 or XLSEGv1)", ErrBadTrace)
	}
	seg, err := Validate(data)
	if err != nil {
		return nil, SegmentInfo{}, err
	}
	rp := seg.Replay()
	for i := range seg.Info().Refs {
		switch r := rp.Next(); {
		case r.Instrs == 0:
			return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: record %d carries zero instructions (pacing invariant: every reference advances the budget)", ErrBadTrace, i)
		case !addr.IsUser(r.VA):
			return nil, SegmentInfo{}, fmt.Errorf("tracec: %w: record %d address %#x is not a canonical user address (below 1<<47)", ErrBadTrace, i, uint64(r.VA))
		}
	}
	return data, seg.Info(), nil
}

// decodeExternal strictly decodes an XLTRACE1 stream.
func decodeExternal(data []byte) ([]trace.Ref, error) {
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("tracec: %w: %v", ErrBadTrace, err)
	}
	var refs []trace.Ref
	for {
		r, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tracec: %w: record %d: %v", ErrBadTrace, len(refs), err)
		}
		refs = append(refs, r)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("tracec: %w: empty trace", ErrBadTrace)
	}
	return refs, nil
}
