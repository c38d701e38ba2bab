package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for an op itself).
// Rank is the cluster rank the work ran on; caller c's side is -1-c.
type span struct {
	ID, Parent, Op int64
	Rank           int
	Name           string
	Start, End     time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends. Chain
// spans (the few per op that the reconciliation needs) are always kept;
// detail spans (every transport call of every rank) stop being kept past
// detailLimit, so the trace file stays loadable while the counters, which
// are separate, still cover the whole run.
type recorder struct {
	epoch       time.Time
	detailLimit int

	nextID  atomic.Int64
	mu      sync.Mutex
	chain   []span
	details []span
	// droppedDetail counts detail spans not kept once detailLimit was reached.
	droppedDetail int64
}

func newRecorder(detailLimit int) *recorder {
	return &recorder{epoch: time.Now(), detailLimit: detailLimit}
}

func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add records a chain span with a caller-chosen ID (so children can name
// their parent before the parent has ended).
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.chain = append(r.chain, s)
	r.mu.Unlock()
}

// detail records one transport-level span of a rank.
func (r *recorder) detail(name string, rank int, op, parent int64, start, end time.Time) {
	s := span{ID: r.id(), Parent: parent, Op: op, Rank: rank, Name: name, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	if len(r.details) < r.detailLimit {
		r.details = append(r.details, s)
	} else {
		r.droppedDetail++
	}
	r.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children (parallel ranks)
// are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// reconciliation compares, over all traced ops, the summed op time with the
// summed self time of the spans on the ops' blocking chain.
type reconciliation struct {
	Ops       int     `json:"ops"`
	OpMs      float64 `json:"op_ms"`
	ChainMs   float64 `json:"chain_self_ms"`
	RelErr    float64 `json:"rel_err"`
	WorstOp   float64 `json:"worst_op_rel_err"`
	Tolerance float64 `json:"tolerance"`
}

const reconcileTolerance = 0.02

// reconcile is the wall-clock analogue of -explain's Reconciles: the chain
// spans tile each op (op = core.multiply = core.run + core.outside_run;
// client = http + server queue/exec/other + decode), so their self times
// must add up to the op's own duration. A synthetic child that does not fit
// inside its parent — a server-reported time longer than the client saw, a
// Result.Wall longer than the call — shows up here as a gap.
func reconcile(chain []span) reconciliation {
	self := selfTimes(chain)
	opDur := map[int64]time.Duration{}
	chainSelf := map[int64]time.Duration{}
	for _, s := range chain {
		if s.Name == "op" {
			opDur[s.Op] = s.dur()
		}
		chainSelf[s.Op] += self[s.ID]
	}
	rec := reconciliation{Ops: len(opDur), Tolerance: reconcileTolerance}
	var total, got time.Duration
	for op, d := range opDur {
		total += d
		got += chainSelf[op]
		if d > 0 {
			rec.WorstOp = max(rec.WorstOp, abs(float64(chainSelf[op]-d))/float64(d))
		}
	}
	rec.OpMs, rec.ChainMs = ms(total), ms(got)
	if total > 0 {
		rec.RelErr = abs(float64(got-total)) / float64(total)
	}
	return rec
}

func (r reconciliation) err() error {
	if r.Ops == 0 {
		return fmt.Errorf("reconciliation: the traced run recorded no op spans")
	}
	if r.RelErr > r.Tolerance {
		return fmt.Errorf("reconciliation: chain self times sum to %.3f ms, ops to %.3f ms (off by %.2f%%, tolerance %.0f%%)",
			r.ChainMs, r.OpMs, 100*r.RelErr, 100*r.Tolerance)
	}
	return nil
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in µs).
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent"`
	Op     int64 `json:"op"`
}

// writeChromeTrace writes every kept span as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Thread 0
// is the caller's side (ops, multiplies, HTTP; a second client is thread
// 100); thread r+1 is rank r.
func (r *recorder) writeChromeTrace(path, workload string) error {
	r.mu.Lock()
	spans := append(append([]span(nil), r.chain...), r.details...)
	dropped := r.droppedDetail
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		tid := s.Rank + 1
		if s.Rank < 0 {
			tid = 100 * (-s.Rank - 1) // caller c: thread 100c
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: traceArgs{ID: s.ID, Parent: s.Parent, Op: s.Op},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"workload":             workload,
			"dropped_detail_spans": dropped,
			"threads":              "tid 0 (100, ...) = caller side, tid r+1 = cluster rank r",
		},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
