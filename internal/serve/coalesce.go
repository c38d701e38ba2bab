package serve

import (
	"hash/maphash"
	"math"
	"sync"
)

// Request coalescing: concurrent multiplies of the same (plan, B) pair are
// one unit of work. The first request in becomes the leader and executes;
// identical requests arriving while it is in flight become followers and
// wait on the leader's outcome — result and error alike — without consuming
// an admission slot.
//
// "Identical" must mean exact operand identity here, which is a stricter
// bar than the row cache's heuristic: the cross-run fingerprint
// (core.FingerprintData) samples ~17 elements, which is fine for detecting
// in-place mutation of one caller's buffer but not for equating two
// *different* clients' operands — a collision would silently hand a
// follower the product of someone else's B. The flight key therefore uses
// exact identity: seed-addressed operands key on the seed itself (the
// server materializes the operand deterministically, so seed equality is
// operand equality), and inline/octet-stream operands key on a full-content
// hash over every byte, with a bitwise comparison against the leader's
// operand before a follower may join. A full-hash collision
// between unequal operands degrades to solo execution, never to sharing.
//
// Leader-specific failures do not poison the cohort: when the leader's
// error is personal (its client disconnected, or its self-shortened queue
// deadline expired), settle marks the flight abandoned and the followers
// re-elect a new leader among themselves instead of inheriting an error
// their own request never earned.

// flightKey identifies one unit of multiply work by exact operand identity.
type flightKey struct {
	plan   string
	seeded bool   // operand addressed by seed (id = seed) vs inline (id = full hash)
	id     uint64 // seed, or operandHash of the full inline operand
	elems  int    // operand length, cheap shape guard
}

// flight is one in-progress execution plus everyone waiting on it. The
// leader writes res/err/abandoned and then closes done; followers read only
// after <-done, which is the happens-before edge.
type flight struct {
	done chan struct{}
	b    []float64 // leader's operand, for bitwise identity confirmation
	res  *execOutcome
	err  error
	// abandoned marks a leader-specific failure: followers should re-elect
	// rather than inherit err.
	abandoned bool

	followers int64 // guarded by the coalescer mutex until done closes
}

// coalescer tracks in-flight executions by key.
type coalescer struct {
	mu       sync.Mutex
	inflight map[flightKey]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{inflight: map[flightKey]*flight{}}
}

// join returns the flight for key and whether the caller is its leader. A
// leader with a non-nil flight must eventually call settle exactly once. A
// (nil, true) return means "execute solo": the key is occupied by a flight
// whose operand is not bitwise-identical (a full-hash collision), so the
// caller runs its own multiply without coalescing.
func (c *coalescer) join(key flightKey, b []float64) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.inflight[key]; ok {
		if !key.seeded && !sameOperand(f.b, b) {
			return nil, true
		}
		f.followers++
		return f, false
	}
	f := &flight{done: make(chan struct{}), b: b}
	c.inflight[key] = f
	return f, true
}

// settle publishes the leader's outcome to every follower and retires the
// key. Removal precedes publication: a duplicate arriving after settle
// starts a fresh flight rather than receiving a stale result, and every
// follower that joined before removal observes exactly this outcome.
// Shared errors (execution failure, server-wide overload, drain) shed or
// fail the whole cohort; abandoned marks leader-specific errors, telling
// followers to re-elect instead.
func (c *coalescer) settle(key flightKey, f *flight, res *execOutcome, err error, abandoned bool) {
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	f.res, f.err, f.abandoned = res, err, abandoned
	close(f.done)
}

// followerCount reports how many followers shared the flight; call only
// after the flight settled (the count is frozen once the key is removed...
// and new joins are impossible).
func (f *flight) followerCount() int64 {
	return f.followers
}

// operandSeed keys operandHash for the life of the process.
var operandSeed = maphash.MakeSeed()

// operandHash is the coalescing identity hash for inline operands:
// hash/maphash over the bytes of every element, at memory speed. Unlike the
// row cache's strided sample it covers the whole buffer, so two operands
// differing in any bit hash apart (modulo 64-bit collisions, which
// sameOperand catches).
func operandHash(data []float64) uint64 {
	return maphash.Bytes(operandSeed, floatBytes(data))
}

// sameOperand reports bitwise equality of two operands (NaN patterns
// compare by bits, not IEEE semantics — identity, not arithmetic).
func sameOperand(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
