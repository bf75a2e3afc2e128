package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/service"
	"xlate/internal/workloads"
)

// The service-cells workload: a closed loop of serviceClients clients,
// each on one keep-alive connection, submitting single-cell jobs to an
// in-process service.Server over loopback HTTP.
const (
	serviceClients  = 2
	requestsPerRep  = 100 // per client; every repeatEvery-th one repeats a finished cell
	repeatEvery     = 4
	serviceInstrs   = 400_000
	serviceScale    = 0.25
	serviceSeedSpan = 1_000_000 // per-client seed block: the clients' cells never collide
)

// serviceRequest is one planned submission of a client.
type serviceRequest struct {
	body   service.SubmitRequest
	repeat int // index of the earlier request it repeats, or -1
}

// servicePlan derives a client's submissions from the seed. The cell
// menu walks the TLB-intensive workloads and the six configurations in
// a fixed order, so every seed asks for the same amount of work; the
// seed picks the simulation seeds and which finished cell each repeat
// asks for again.
func servicePlan(seed int64, client int) []serviceRequest {
	rng := rand.New(rand.NewSource(seed*31 + int64(client)))
	specs := workloads.TLBIntensive()
	kinds := core.AllConfigs()
	base := seed*serviceClients*serviceSeedSpan + int64(client)*serviceSeedSpan + 1
	var plan []serviceRequest
	var misses []int
	for i := 0; i < requestsPerRep; i++ {
		if i%repeatEvery == repeatEvery-1 {
			prev := misses[rng.Intn(len(misses))]
			plan = append(plan, serviceRequest{body: plan[prev].body, repeat: prev})
			continue
		}
		n := len(misses)
		plan = append(plan, serviceRequest{repeat: -1, body: service.SubmitRequest{
			Workload: specs[(n+client*3)%len(specs)].Name,
			Config:   kinds[(n+client)%len(kinds)].String(),
			Instrs:   serviceInstrs,
			Scale:    serviceScale,
			Seed:     base + int64(n),
		}})
		misses = append(misses, i)
	}
	return plan
}

// clientLog is what one client saw.
type clientLog struct {
	cells    []float64 // per submission: send to final reply, seconds
	hitMS    []float64
	missMS   []float64
	memRefs  uint64
	refused  int
	failed   int
	hits     int
	problems []string
	payloads []byte // every result payload, in submission order
}

// runService runs one repetition of the service-cells workload.
func runService(ctx context.Context, seed int64, rec *recorder) (*repReport, error) {
	t0 := time.Now()
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // the workload is over; a slow close changes no result
		<-served
	}()
	base := "http://" + ln.Addr().String()

	clients := make([]*http.Client, serviceClients)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[c].CloseIdleConnections()
	}
	// The listener is ready once it answers a health check; client 0
	// asks, and keeps that connection for its jobs.
	if err := get(ctx, clients[0], base+"/healthz", nil); err != nil {
		return nil, fmt.Errorf("service not ready: %w", err)
	}
	setup := time.Since(t0)

	logs := make([]clientLog, serviceClients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = runClient(ctx, clients[c], base, servicePlan(seed, c), c, rec)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	r := &repReport{WallS: wall.Seconds(), SetupS: setup.Seconds()}
	var hit, miss []float64
	hits, refused := 0, 0
	sum := sha256.New()
	for c, l := range logs {
		r.CellS = append(r.CellS, l.cells...)
		r.Attempted += len(l.cells)
		r.Failed += l.failed + l.refused
		r.MemRefs += l.memRefs
		r.Problems = append(r.Problems, l.problems...)
		hit = append(hit, l.hitMS...)
		miss = append(miss, l.missMS...)
		hits += l.hits
		refused += l.refused
		fmt.Fprintf(sum, "client %d\n", c)
		sum.Write(l.payloads)
	}
	r.Digest = hex.EncodeToString(sum.Sum(nil))
	hitRatio := ratio(float64(hits), float64(r.Attempted))
	r.Witness = map[string]string{
		"digest":                  r.Digest,
		"core.refs":               strconv.FormatUint(r.MemRefs, 10),
		"service.cache_hit_ratio": strconv.FormatFloat(hitRatio, 'g', -1, 64),
	}
	if rec != nil {
		r.Layers = spanLayers(rec.snapshot(), time.Since(rec.t0))
		r.Layers["service.hit_p50_ms"] = median(hit)
		r.Layers["service.miss_p50_ms"] = median(miss)
		r.Layers["service.cache_hit_ratio"] = hitRatio
		r.Layers["service.refused"] = float64(refused)
	}
	return r, nil
}

// runClient submits the plan one job at a time, each after the previous
// reply, and checks every reply: each must reach done, each repeat must
// come from the cache with the same payload as the first time.
func runClient(ctx context.Context, hc *http.Client, base string, plan []serviceRequest, client int, rec *recorder) clientLog {
	var l clientLog
	payloads := make([][]byte, len(plan))
	for i, req := range plan {
		name := "service.miss"
		if req.repeat >= 0 {
			name = "service.hit"
		}
		cell := client*len(plan) + i + 1
		var sp int
		if rec != nil {
			sp = rec.begin(name, 0, cell)
		}
		start := time.Now()
		st, code, err := submit(ctx, hc, base, req.body)
		d := time.Since(start)
		if rec != nil {
			rec.end(sp, 0, "")
		}
		l.cells = append(l.cells, d.Seconds())
		if req.repeat >= 0 {
			l.hitMS = append(l.hitMS, float64(d)/1e6)
		} else {
			l.missMS = append(l.missMS, float64(d)/1e6)
		}
		label := fmt.Sprintf("client %d request %d (%s/%s)", client, i, req.body.Workload, req.body.Config)
		switch {
		case err != nil:
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("%s: %v", label, err))
			continue
		case code < 200 || code > 299:
			l.refused++
			l.problems = append(l.problems, fmt.Sprintf("%s: HTTP %d: %s", label, code, st.Error))
			continue
		case st.State != service.StateDone:
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("%s: state %q: %s", label, st.State, st.Error))
			continue
		case req.repeat >= 0 && !st.Cached:
			l.failed++
			l.problems = append(l.problems, label+": a repeated cell was not answered from the cache")
			continue
		}
		if st.Cached {
			l.hits++
		}

		var sp2 int
		if rec != nil {
			sp2 = rec.begin("service.result", 0, cell)
		}
		var res service.CellResult
		err = get(ctx, hc, base+st.ResultURL, &payloads[i])
		if rec != nil {
			rec.end(sp2, 0, "")
		}
		if err == nil {
			err = json.Unmarshal(payloads[i], &res)
		}
		switch {
		case err != nil:
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("%s: result: %v", label, err))
		case res.Workload != req.body.Workload || res.Config != req.body.Config || res.Result.MemRefs == 0:
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("%s: result is for %s/%s with %d refs", label, res.Workload, res.Config, res.Result.MemRefs))
		case req.repeat >= 0 && !bytes.Equal(payloads[i], payloads[req.repeat]):
			l.failed++
			l.problems = append(l.problems, label+": cached result differs from the first one")
		case req.repeat < 0:
			l.memRefs += res.Result.MemRefs
		}
		l.payloads = append(l.payloads, payloads[i]...)
	}
	return l
}

// submit posts one job and waits for its completion in the same call.
func submit(ctx context.Context, hc *http.Client, base string, body service.SubmitRequest) (service.JobStatus, int, error) {
	var st service.JobStatus
	data, err := json.Marshal(body)
	if err != nil {
		return st, 0, fmt.Errorf("encoding job: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs?wait=120s", bytes.NewReader(data))
	if err != nil {
		return st, 0, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return st, 0, fmt.Errorf("posting job: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, fmt.Errorf("reading reply: %w", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("decoding reply: %w", err)
	}
	return st, resp.StatusCode, nil
}

// get fetches url; with into set it keeps the body. Any status but 200
// is an error.
func get(ctx context.Context, hc *http.Client, url string, into *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("building request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New("GET " + url + ": " + resp.Status)
	}
	if into != nil {
		*into = body
	}
	return nil
}
