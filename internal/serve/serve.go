// Package serve is the resident-plan serving daemon behind cmd/twoface-serve:
// an HTTP front end over a registry of preprocessed plans that runs multiply
// traffic concurrently across plans under bounded admission control, with
// request coalescing for concurrent duplicates.
//
// The request path is: parse → coalesce (duplicates of an in-flight
// execution wait on its outcome, consuming no slot) → admission (bounded
// in-flight slots + a bounded deadline queue + an operand byte budget;
// overload sheds with 429 + Retry-After instead of collapsing) → execute →
// respond. Shutdown is graceful: queued requests are either completed or
// 503'd, in-flight ones finish, and the HTTP server drains via context
// (obs.Server.Shutdown). All serving state is observable through the PR 7
// ops endpoints, which the daemon mounts on the same listener.
//
// See DESIGN.md section 13.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"time"

	"twoface"
	"twoface/internal/obs"
)

// Config tunes the daemon's admission and request policies. Zero values
// take serving defaults, not "off".
type Config struct {
	// MaxInFlight bounds concurrent multiply executions (default 4).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot (default 64). Beyond it,
	// requests shed with 429.
	MaxQueue int
	// QueueTimeout is how long a request may wait for a slot before being
	// shed (default 2s). Requests may shorten it per call, never extend it.
	QueueTimeout time.Duration
	// MaxInFlightBytes caps the summed dense-operand bytes of executing and
	// queued requests (default 1 GiB; <0 disables the budget).
	MaxInFlightBytes int64
	// MaxBodyBytes caps one request body (default 256 MiB).
	MaxBodyBytes int64
	// AllowHold honors the hold_ms request field, an artificial pre-execute
	// delay inside the admission slot. A load-testing and smoke-test aid —
	// deterministic request overlap — disabled in production configs.
	AllowHold bool
	// Logger receives request-level records; nil uses the process logger.
	Logger *slog.Logger
}

func (c Config) normalize() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxInFlightBytes == 0 {
		c.MaxInFlightBytes = 1 << 30
	}
	if c.MaxInFlightBytes < 0 {
		c.MaxInFlightBytes = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	return c
}

// Server serves multiply traffic over a registry of resident plans.
type Server struct {
	cfg   Config
	plans *Registry
	adm   *admission
	coal  *coalescer
	ops   *obs.Server
	log   *slog.Logger
}

// New returns a server over the given resident plans.
func New(cfg Config, plans *Registry) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:   cfg,
		plans: plans,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.MaxInFlightBytes, cfg.QueueTimeout),
		coal:  newCoalescer(),
		log:   cfg.Logger,
	}
	s.ops = obs.NewServer(nil)
	s.ops.Handle("/v1/multiply", http.HandlerFunc(s.handleMultiply))
	s.ops.Handle("/v1/plans", http.HandlerFunc(s.handlePlans))
	return s
}

// Ops exposes the underlying ops server (SetReport, SetStatus).
func (s *Server) Ops() *obs.Server { return s.ops }

// Start binds addr (":0" picks a free port) and serves in the background.
func (s *Server) Start(addr string) error {
	if err := s.ops.Start(addr); err != nil {
		return err
	}
	s.ops.SetStatus("serving")
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string { return s.ops.Addr() }

// Close stops the server immediately (tests); daemons use Shutdown.
func (s *Server) Close() error { return s.ops.Close() }

// QueueHighWater reports the maximum admission queue depth observed.
func (s *Server) QueueHighWater() int64 { return s.adm.QueueHighWater() }

// Shutdown drains the server: new and queued requests are refused (503 and
// 429→503 respectively — "completed or 503'd" is the contract, queued work
// has by definition not started), in-flight multiplies run to completion,
// and the HTTP layer drains via ctx. When ctx expires first, stragglers are
// cut and the context error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ops.SetStatus("draining")
	s.adm.startDrain()
	return s.ops.Shutdown(ctx)
}

// MultiplyRequest is the JSON body of POST /v1/multiply. Exactly one of B
// and Seed supplies the dense operand: B carries it inline (NumCols*K
// values, row-major), Seed addresses the deterministic random operand the
// server materializes (and caches) itself — the cheap path for load
// generation and GNN-style workloads with a small operand working set.
//
// The raw-binary alternative: POST with Content-Type
// application/octet-stream, the operand as little-endian float64s in the
// body, and plan/tenant/options in query parameters (plan, tenant, seed,
// include_c, hold_ms, queue_timeout_ms, no_coalesce).
type MultiplyRequest struct {
	Plan   string `json:"plan"`
	Tenant string `json:"tenant,omitempty"`

	Seed *uint64   `json:"seed,omitempty"`
	B    []float64 `json:"b,omitempty"`

	// IncludeC returns the full result matrix in the response (large!).
	IncludeC bool `json:"include_c,omitempty"`
	// HoldMillis delays execution inside the admission slot (needs
	// Config.AllowHold; capped at 10s). Load-testing aid.
	HoldMillis int `json:"hold_ms,omitempty"`
	// QueueTimeoutMillis shortens the admission queue deadline for this
	// request (0 = server default; never extends it).
	QueueTimeoutMillis int `json:"queue_timeout_ms,omitempty"`
	// NoCoalesce opts this request out of duplicate coalescing — the
	// harness's uncoalesced baseline.
	NoCoalesce bool `json:"no_coalesce,omitempty"`
}

// MultiplyResponse is the JSON reply to a served multiply.
type MultiplyResponse struct {
	Plan           string  `json:"plan"`
	Rows           int     `json:"rows"`
	K              int     `json:"k"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	ExecMillis     float64 `json:"exec_ms"`
	QueueMillis    float64 `json:"queue_ms"`
	TotalMillis    float64 `json:"total_ms"`
	// Coalesced marks a follower response: this request shared another
	// request's execution (exec/queue times are the leader's).
	Coalesced bool `json:"coalesced"`
	// Checksum is FingerprintDense of the result C.
	Checksum uint64 `json:"checksum"`
	// RowCacheHits / Misses are the executor's cross-run row-cache counters
	// for this execution.
	RowCacheHits   int64     `json:"row_cache_hits"`
	RowCacheMisses int64     `json:"row_cache_misses"`
	C              []float64 `json:"c,omitempty"`
}

// PlanInfo is one entry of GET /v1/plans.
type PlanInfo struct {
	Name   string            `json:"name"`
	Rows   int               `json:"rows"`
	Cols   int               `json:"cols"`
	K      int               `json:"k"`
	Source string            `json:"source,omitempty"`
	Prep   twoface.PrepStats `json:"prep"`
}

// execOutcome is what one execution produces, shared verbatim with every
// coalesced follower.
type execOutcome struct {
	res         *twoface.Result
	checksum    uint64
	execMillis  float64
	queueMillis float64
}

// parsedRequest is a multiply request after validation: the resident it
// addresses, the materialized operand, and the exact-identity coalescing
// key (see coalesce.go for why the key is not the row cache's sampled
// fingerprint).
type parsedRequest struct {
	req      MultiplyRequest
	resident *Resident
	b        *twoface.DenseMatrix
	key      flightKey
	bytes    int64 // operand bytes counted against the admission budget
}

// httpError carries a status (and optional Retry-After) to the response.
type httpError struct {
	status     int
	retryAfter int
	msg        string
}

func (e *httpError) Error() string { return e.msg }

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var out []PlanInfo
	for _, name := range s.plans.Names() {
		res := s.plans.Get(name)
		out = append(out, PlanInfo{
			Name: name, Rows: res.Plan.NumRows(), Cols: res.Plan.NumCols(),
			K: res.K, Source: res.Source, Prep: res.Plan.Stats(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// handleMultiply is the serving hot path; see the package comment for the
// stage order and metrics.go for the outcome accounting.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	pr, err := s.parseRequest(r)
	if err != nil {
		metricBadRequests.Inc()
		s.writeError(w, err)
		return
	}
	metricRequests.Inc()
	metricsForPlan(pr.resident.Name).requests.Inc()
	tenantRequests(pr.req.Tenant).Inc()

	countedCoalesced := false
	for {
		var fl *flight
		leader := true
		if !pr.req.NoCoalesce {
			fl, leader = s.coal.join(pr.key, pr.b.Data)
		}
		if leader {
			out, err := s.execute(r.Context(), pr)
			if fl != nil {
				s.coal.settle(pr.key, fl, out, err, leaderOnlyError(pr, err))
			}
			s.respond(w, pr, out, err, false, start)
			if fl != nil && s.log.Enabled(nil, slog.LevelDebug) && fl.followerCount() > 0 {
				s.log.Debug("coalesced execution",
					"plan", pr.resident.Name, "followers", fl.followerCount(), "key", pr.key.id)
			}
			return
		}

		// Follower: wait for the leader's outcome (or the client to give
		// up) and respond with the shared result. A flight abandoned on a
		// leader-specific error loops back to re-elect a new leader among
		// the surviving followers instead of inheriting the error.
		if !countedCoalesced {
			metricCoalesced.Inc()
			countedCoalesced = true
		}
		select {
		case <-fl.done:
		case <-r.Context().Done():
			metricFailed.Inc()
			return
		}
		if fl.abandoned {
			continue
		}
		s.respond(w, pr, fl.res, fl.err, true, start)
		return
	}
}

// leaderOnlyError reports whether err condemns only this leader, not the
// work: the leader's client disconnected, or its self-shortened queue
// deadline expired (a still-connected follower without that override would
// have kept waiting). Shared conditions — execution failure, the server's
// own queue deadline, overload, drain — stay cohort-wide.
func leaderOnlyError(pr *parsedRequest, err error) bool {
	if errors.Is(err, ErrClientGone) {
		return true
	}
	return errors.Is(err, ErrQueueDeadline) && pr.req.QueueTimeoutMillis > 0
}

// execute runs one multiply under admission control.
func (s *Server) execute(ctx context.Context, pr *parsedRequest) (*execOutcome, error) {
	qStart := time.Now()
	release, err := s.adm.acquire(ctx, pr.bytes, time.Duration(pr.req.QueueTimeoutMillis)*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer release()
	queueWait := time.Since(qStart)
	metricQueueWait.Observe(queueWait.Seconds())

	if pr.req.HoldMillis > 0 && s.cfg.AllowHold {
		hold := time.Duration(pr.req.HoldMillis) * time.Millisecond
		if hold > 10*time.Second {
			hold = 10 * time.Second
		}
		select {
		case <-time.After(hold):
		case <-ctx.Done():
			return nil, ErrClientGone
		}
	}

	eStart := time.Now()
	metricExecs.Inc()
	res, err := pr.resident.Plan.Multiply(pr.b)
	if err != nil {
		return nil, err
	}
	execWall := time.Since(eStart)
	metricExecTime.Observe(execWall.Seconds())
	metricRowCacheHits.Add(res.RowCache.Hits)
	metricRowCacheMisses.Add(res.RowCache.Misses)
	return &execOutcome{
		res:         res,
		checksum:    twoface.FingerprintDense(res.C),
		execMillis:  float64(execWall) / float64(time.Millisecond),
		queueMillis: float64(queueWait) / float64(time.Millisecond),
	}, nil
}

// respond writes the outcome (or its error) and records the request's
// terminal metrics. Every admitted request passes through here exactly once,
// except followers whose client vanished (counted failed in awaitFlight).
func (s *Server) respond(w http.ResponseWriter, pr *parsedRequest, out *execOutcome, err error, coalesced bool, start time.Time) {
	if err != nil {
		s.writeError(w, err)
		return
	}
	metricCompleted.Inc()
	total := time.Since(start)
	metricLatency.Observe(total.Seconds())
	metricsForPlan(pr.resident.Name).latency.Observe(total.Seconds())
	resp := MultiplyResponse{
		Plan:           pr.resident.Name,
		Rows:           out.res.C.Rows,
		K:              out.res.C.Cols,
		ModeledSeconds: out.res.ModeledSeconds,
		ExecMillis:     out.execMillis,
		QueueMillis:    out.queueMillis,
		TotalMillis:    float64(total) / float64(time.Millisecond),
		Coalesced:      coalesced,
		Checksum:       out.checksum,
		RowCacheHits:   out.res.RowCache.Hits,
		RowCacheMisses: out.res.RowCache.Misses,
	}
	if pr.req.IncludeC {
		resp.C = out.res.C.Data
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// writeError maps an error onto its HTTP status and outcome counter.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
		http.Error(w, he.msg, he.status)
		return
	}
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQueueDeadline):
		metricShed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		metricDrained.Inc()
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		metricFailed.Inc()
		s.log.Warn("multiply failed", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseRequest validates a multiply request in either encoding and
// materializes its operand. Errors here are the client's fault (4xx) and do
// not enter the outcome accounting.
func (s *Server) parseRequest(r *http.Request) (*parsedRequest, error) {
	var (
		req      MultiplyRequest
		resident *Resident
		err      error
	)
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	// Compare the media type only, so parameterized headers like
	// "application/octet-stream; charset=binary" still select binary mode.
	mediaType := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(mediaType); err == nil {
		mediaType = mt
	}
	if mediaType == "application/octet-stream" {
		q := r.URL.Query()
		req.Plan = q.Get("plan")
		req.Tenant = q.Get("tenant")
		req.IncludeC = q.Get("include_c") == "1"
		req.NoCoalesce = q.Get("no_coalesce") == "1"
		if v := q.Get("seed"); v != "" {
			return nil, badRequest("seed is a JSON-mode parameter; octet-stream bodies carry B inline")
		}
		if v := q.Get("hold_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("bad hold_ms %q", v)
			}
			req.HoldMillis = n
		}
		if v := q.Get("queue_timeout_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, badRequest("bad queue_timeout_ms %q", v)
			}
			req.QueueTimeoutMillis = n
		}
		if resident, err = s.plans.resolve(req.Plan); err != nil {
			return nil, err
		}
		req.B = make([]float64, resident.Plan.NumCols()*resident.K)
		if err := readOctetOperand(body, r.ContentLength, req.B, binary.NativeEndian); err != nil {
			return nil, err
		}
	} else {
		// The buffer doubles as bytes arrive, so a declared Content-Length
		// the client never sends allocates nothing.
		var raw bytes.Buffer
		if _, err := raw.ReadFrom(body); err != nil {
			return nil, readError(err)
		}
		if req, resident, err = decodeJSONRequest(raw.Bytes(), s.plans); err != nil {
			return nil, err
		}
	}

	pr := &parsedRequest{req: req, resident: resident}
	switch {
	case req.B != nil && req.Seed != nil:
		return nil, badRequest("give b or seed, not both")
	case req.B != nil:
		pr.b = &twoface.DenseMatrix{Rows: resident.Plan.NumCols(), Cols: resident.K, Data: req.B}
		pr.bytes = int64(8 * len(req.B))
	case req.Seed != nil:
		// Cached server-side operands carry no admission byte cost beyond
		// the cache itself; the budget targets per-request payloads.
		pr.b = resident.Operand(*req.Seed)
	default:
		return nil, badRequest("missing operand: give b, seed, or an octet-stream body")
	}
	// Exact-identity coalescing key: the seed addresses a deterministic
	// server-materialized operand, so seed equality is operand equality;
	// inline operands hash every byte (and join confirms bitwise equality
	// against the leader — see coalesce.go).
	if req.Seed != nil {
		pr.key = flightKey{plan: resident.Name, seeded: true, id: *req.Seed, elems: len(pr.b.Data)}
	} else {
		pr.key = flightKey{plan: resident.Name, id: operandHash(pr.b.Data), elems: len(pr.b.Data)}
	}
	return pr, nil
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBytesError translates the http.MaxBytesReader failure into 413.
func maxBytesError(err error) *httpError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	}
	return nil
}
