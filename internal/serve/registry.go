package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"twoface"
)

// The resident-plan registry: preprocessed matrices held in memory for the
// lifetime of the daemon, each reusable across every multiply request that
// names it. Holding the Plan resident is the whole point of the serving
// shape — preprocessing and the executor's cross-run row cache amortize
// across the request stream instead of being paid per call.

// maxCachedOperands bounds each resident's seed-generated operand cache.
// Requests may carry B inline, but the load harness (and GNN-style callers
// re-multiplying a small working set of operands) address B by seed; caching
// the materialized matrices keeps repeat traffic on the row-cache hit path
// instead of regenerating and re-fingerprinting identical data.
const maxCachedOperands = 32

// Resident is one plan held in memory and served.
type Resident struct {
	// Name addresses the plan in requests and metrics.
	Name string
	// Plan is the preprocessed matrix (safe for concurrent Multiply; calls
	// serialize inside the Plan).
	Plan *twoface.Plan
	// K is the dense operand width the plan was built for.
	K int
	// Source describes where the matrix came from (generator spec or path).
	Source string

	opMu     sync.Mutex
	operands map[uint64]*twoface.DenseMatrix
}

// Operand returns the deterministic dense operand for seed (NumCols x K,
// the same matrix twoface.RandomDense yields), served from the resident's
// bounded cache.
func (res *Resident) Operand(seed uint64) *twoface.DenseMatrix {
	res.opMu.Lock()
	defer res.opMu.Unlock()
	if b, ok := res.operands[seed]; ok {
		return b
	}
	b := twoface.RandomDense(res.Plan.NumCols(), res.K, seed)
	if res.operands == nil {
		res.operands = map[uint64]*twoface.DenseMatrix{}
	}
	if len(res.operands) >= maxCachedOperands {
		// Evict one arbitrary entry; the cache is a working-set accelerator,
		// not a correctness structure, so any victim works.
		for k := range res.operands {
			delete(res.operands, k)
			break
		}
	}
	res.operands[seed] = b
	return b
}

// Registry is the named set of resident plans.
type Registry struct {
	mu    sync.RWMutex
	plans map[string]*Resident
}

// NewRegistry returns an empty plan registry.
func NewRegistry() *Registry {
	return &Registry{plans: map[string]*Resident{}}
}

// Add registers a resident plan. Names must be unique.
func (r *Registry) Add(res *Resident) error {
	if res.Name == "" {
		return fmt.Errorf("serve: resident plan needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.plans[res.Name]; ok {
		return fmt.Errorf("serve: duplicate plan %q", res.Name)
	}
	r.plans[res.Name] = res
	return nil
}

// Get returns the resident registered under name, or nil.
func (r *Registry) Get(name string) *Resident {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.plans[name]
}

// resolve returns the resident a request names: 400 when it names none,
// 404 when no resident has that name.
func (r *Registry) resolve(name string) (*Resident, error) {
	if name == "" {
		return nil, badRequest("missing plan name")
	}
	if res := r.Get(name); res != nil {
		return res, nil
	}
	return nil, &httpError{status: http.StatusNotFound,
		msg: fmt.Sprintf("unknown plan %q (have %v)", name, r.Names())}
}

// Names returns the registered plan names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.plans))
	for n := range r.plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of resident plans.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.plans)
}
