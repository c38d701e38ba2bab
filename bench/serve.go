package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"twoface"
	"twoface/internal/serve"
)

// serve-mix: an internal/serve server in this process, one resident plan,
// closed-loop HTTP clients over real 127.0.0.1 connections.

const (
	servePlan = "web"
	serveK    = 32
	serveP    = 4
)

// body is one pre-encoded request body. Encoding is done once at set-up:
// the benchmark measures the server, and a client that re-encoded 6 MB of
// JSON per request would spend the server's CPU on the client's work.
type body struct {
	contentType string
	query       string // octet-stream carries its options in the URL
	head, tail  string // JSON object around the shared operand bytes
	payload     []byte
}

func (b *body) size() int64 { return int64(len(b.head) + len(b.payload) + len(b.tail)) }

func (b *body) reader() io.Reader {
	return io.MultiReader(strings.NewReader(b.head), bytes.NewReader(b.payload), strings.NewReader(b.tail))
}

type serveInstance struct {
	ctx    *runCtx
	plan   *twoface.Plan
	srv    *serve.Server
	url    string
	https  []*http.Client
	f      facts
	rows   int
	mix    [][]request            // per client
	bodies [numClasses][][2]*body // [class][operand][plain, verify]
	ops    [numClasses][]*twoface.DenseMatrix
	refs   [numClasses][]*twoface.DenseMatrix
}

func setupServe(c *runCtx) (instance, setupInfo, error) {
	var info setupInfo
	start := time.Now()
	a := twoface.Generate("web", c.size.serve, subSeed(c.seed, streamMatrix))
	info.gen = time.Since(start)

	stats := c.newStats(serveP)
	t := time.Now()
	plan, err := c.newSimPlan(a, serveP, serveK, simWorkers, simAsyncWorkers, stats, nil)
	if err != nil {
		return nil, info, err
	}
	info.preprocess = time.Since(t)

	plans := serve.NewRegistry()
	if err := plans.Add(&serve.Resident{Name: servePlan, Plan: plan, K: serveK, Source: "bench"}); err != nil {
		return nil, info, err
	}
	srv := serve.New(serve.Config{MaxInFlight: 2}, plans)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, info, err
	}
	info.total = time.Since(start)

	inst := &serveInstance{ctx: c, plan: plan, srv: srv, url: "http://" + srv.Addr() + "/v1/multiply", rows: int(a.NumRows)}
	for cl := 0; cl < serveClients; cl++ {
		// One connection per client: the load is never wider than the clients.
		inst.https = append(inst.https, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
		inst.mix = append(inst.mix, requestMix(c.seed, cl, 2000))
	}
	inst.encodeBodies(int(a.NumCols))
	inst.f = facts{a: a, b: inst.ops[classSeed][0], k: serveK, prep: plan.Stats(), stats: stats}
	return inst, info, nil
}

// seedOf is the operand seed a seed-addressed request names; the server
// materializes twoface.RandomDense(cols, K, seed), and so does the check.
func (s *serveInstance) seedOf(operand int) uint64 {
	return subSeed(s.ctx.seed, streamOperand+uint64(operand))
}

func (s *serveInstance) encodeBodies(cols int) {
	index := 0
	for class := 0; class < numClasses; class++ {
		for i := 0; i < classOperands[class]; i++ {
			// A seed-addressed operand is the one the server will build
			// from the seed; the others travel in the request.
			b := s.ctx.operand(cols, serveK, index)
			if class == classSeed {
				b = twoface.RandomDense(cols, serveK, s.seedOf(i))
			}
			index++
			s.ops[class] = append(s.ops[class], b)
			var pair [2]*body
			for v, verify := range []bool{false, true} {
				switch class {
				case classSeed:
					pair[v] = &body{contentType: "application/json",
						head: fmt.Sprintf(`{"plan":%q,"seed":%d,"include_c":%t}`, servePlan, s.seedOf(i), verify)}
				case classOctet:
					raw := make([]byte, 8*len(b.Data))
					for j, x := range b.Data {
						binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(x))
					}
					q := "?plan=" + servePlan
					if verify {
						q += "&include_c=1"
					}
					pair[v] = &body{contentType: "application/octet-stream", query: q, payload: raw}
				case classJSON:
					if v == 1 {
						// Same operand bytes, different envelope.
						pair[v] = &body{contentType: "application/json", payload: pair[0].payload,
							head: fmt.Sprintf(`{"plan":%q,"include_c":true,"b":`, servePlan), tail: "}"}
						continue
					}
					arr, _ := json.Marshal(b.Data) // finite floats always encode
					pair[v] = &body{contentType: "application/json", payload: arr,
						head: fmt.Sprintf(`{"plan":%q,"b":`, servePlan), tail: "}"}
				}
			}
			s.bodies[class] = append(s.bodies[class], pair)
		}
	}
}

func (s *serveInstance) clients() int  { return serveClients }
func (s *serveInstance) period() int   { return verifyEvery }
func (s *serveInstance) facts() *facts { return &s.f }

func (s *serveInstance) close() {
	for _, c := range s.https {
		c.CloseIdleConnections()
	}
	s.srv.Close()
}

func (s *serveInstance) prepare() error {
	csr := s.f.a.ToCSR()
	for class := range s.ops {
		for i, b := range s.ops[class] {
			ref, err := csr.Mul(b)
			if err != nil {
				return err
			}
			res, err := s.plan.Multiply(b)
			if err != nil {
				return err
			}
			if s.f.first == nil {
				s.f.first = res
			}
			if !res.C.AlmostEqual(ref, checkTol) {
				return fmt.Errorf("%s operand %d: C does not match the reference kernel", classNames[class], i)
			}
			s.refs[class] = append(s.refs[class], ref)
		}
	}
	// The plan's multiply with nobody else on the machine, over the same
	// operand working set: the denominator of serve.exec_over_solo.
	var solo []float64
	for n := 0; n < s.ctx.size.soloOps; n++ {
		b := s.ops[classSeed][n%len(s.ops[classSeed])]
		start := time.Now()
		if _, err := s.plan.Multiply(b); err != nil {
			return err
		}
		solo = append(solo, ms(time.Since(start)))
	}
	s.f.soloMs = median(solo)
	return nil
}

func (s *serveInstance) do(client, n int) opSample {
	rq := s.mix[client][n%len(s.mix[client])]
	v := 0
	if rq.verify {
		v = 1
	}
	bd := s.bodies[rq.class][rq.operand][v]
	smp := opSample{class: rq.class, timed: !rq.verify, reqBytes: bd.size()}

	req, err := http.NewRequest(http.MethodPost, s.url+bd.query, bd.reader())
	if err != nil {
		return smp
	}
	req.ContentLength = bd.size()
	req.Header.Set("Content-Type", bd.contentType)

	tracing := s.f.stats != nil && s.f.stats.on.Load()

	start := time.Now()
	resp, err := s.https[client].Do(req)
	headers := time.Now()
	var mr serve.MultiplyResponse
	status := 0
	if err == nil {
		status = resp.StatusCode
		if status == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&mr)
		}
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
	}
	end := time.Now()

	smp.dur = end.Sub(start)
	smp.shed = status == http.StatusTooManyRequests
	if err != nil || status != http.StatusOK {
		return smp
	}
	smp.coalesced = mr.Coalesced
	smp.queueMs, smp.execMs, smp.totalMs = mr.QueueMillis, mr.ExecMillis, mr.TotalMillis
	smp.httpMs = ms(headers.Sub(start)) - mr.TotalMillis
	smp.decodeMs = ms(end.Sub(headers))
	smp.cacheHits, smp.cacheOp = mr.RowCacheHits, mr.RowCacheHits+mr.RowCacheMisses

	checked := time.Now()
	smp.ok = mr.Plan == servePlan && mr.Rows == s.rows && mr.K == serveK
	if rq.verify && smp.ok {
		got := twoface.DenseMatrix{Rows: mr.Rows, Cols: mr.K, Data: mr.C}
		smp.ok = len(mr.C) == mr.Rows*mr.K && got.AlmostEqual(s.refs[rq.class][rq.operand], checkTol)
	}
	smp.check = time.Since(checked)

	if tracing && smp.timed {
		rec := s.f.stats.rec
		s.trace(rec, client, start, headers, end, mr)
		rec.detail("check", -1, 0, 0, checked, checked.Add(smp.check))
	}
	return smp
}

// trace records op → http.roundtrip → server.{other,queue,exec}, and
// op → client.decode. The server reports durations, not instants; its block
// is laid against the end of the round trip, where the response headers
// left, in the order the request path runs: parse and coalesce (the
// remainder), admission queue, execute.
func (s *serveInstance) trace(rec *recorder, client int, start, headers, end time.Time, mr serve.MultiplyResponse) {
	op, rt := rec.id(), rec.id()
	t0, t1, t2 := rec.at(start), rec.at(headers), rec.at(end)
	tid := -1 - client // each client on its own caller-side track
	rec.add(span{ID: op, Op: op, Rank: tid, Name: "op", Start: t0, End: t2})
	rec.add(span{ID: rt, Parent: op, Op: op, Rank: tid, Name: "http.roundtrip", Start: t0, End: t1})
	rec.add(span{ID: rec.id(), Parent: op, Op: op, Rank: tid, Name: "client.decode", Start: t1, End: t2})

	msDur := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	total, queue, exec := msDur(mr.TotalMillis), msDur(mr.QueueMillis), msDur(mr.ExecMillis)
	parts := []struct {
		name string
		d    time.Duration
	}{{"server.other", total - queue - exec}, {"server.queue", queue}, {"server.exec", exec}}
	if mr.Coalesced {
		// A follower reports its leader's queue and exec times, which need
		// not fit inside its own request: all it did was wait.
		parts = parts[:1]
		parts[0].name, parts[0].d = "server.coalesced", total
	}
	at := t1 - total
	for _, part := range parts {
		rec.add(span{ID: rec.id(), Parent: rt, Op: op, Rank: tid, Name: part.name, Start: at, End: at + part.d})
		at += part.d
	}
}
