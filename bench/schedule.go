package main

// Everything a run draws at random — matrices, operands, request order —
// comes from the one -seed through these functions, so a seed names a run.

// splitmix64 is the SplitMix64 finalizer: a bijective mix good enough to
// turn consecutive integers into independent-looking streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Seed streams: one per kind of input, so changing how many operands a
// workload draws never changes its matrix.
const (
	streamMatrix  = 1
	streamOperand = 1000 // + operand index
	streamClient  = 2000 // + client index
)

// subSeed derives the seed of one input stream from the run seed.
func subSeed(seed, stream uint64) uint64 { return splitmix64(seed ^ splitmix64(stream)) }

// rng is a SplitMix64 sequence; the schedules need a handful of draws that
// must not change with the Go release, which math/rand does not promise.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return splitmix64(r.state)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rotation places op n of a caller that cycles through `operands` dense
// operands, multiplying by each `reuse` times in a row (the GNN-epoch
// pattern: B changes, then is reused). cold marks the first use after a
// change, the multiply that refills the remote-row cache.
func rotation(n, operands, reuse int) (operand int, cold bool) {
	operand = (n / reuse) % operands
	cold = n == 0 || (operands > 1 && n%reuse == 0)
	return operand, cold
}

// Request classes of the serve-mix workload.
const (
	classSeed  = iota // JSON body naming a server-cached operand by seed
	classOctet        // raw little-endian float64 operand
	classJSON         // operand inline as a JSON array
	numClasses
)

var classNames = [numClasses]string{"seed", "octet", "json"}

// Operands per request class: eight seeds the server caches, two inline
// operands for each body encoding.
var classOperands = [numClasses]int{8, 2, 2}

const (
	mixBlock    = 10 // requests per 60/20/20 block
	verifyEvery = 20 // every 20th request carries include_c and is compared in full
)

type request struct {
	class   int
	operand int  // index within the class's operands
	verify  bool // include_c: checked against the reference, kept out of the latency samples
}

// requestMix returns one client's first n requests: consecutive blocks of
// ten, each an independently shuffled six seed-addressed, two octet-stream
// and two inline-JSON requests, so every block holds the 60/20/20 mix
// exactly and the median stays inside the seed class whatever the order.
func requestMix(seed uint64, client, n int) []request {
	r := rng{state: subSeed(seed, streamClient+uint64(client))}
	out := make([]request, 0, n+mixBlock)
	for len(out) < n {
		block := [mixBlock]int{classSeed, classSeed, classSeed, classSeed, classSeed, classSeed,
			classOctet, classOctet, classJSON, classJSON}
		for i := mixBlock - 1; i > 0; i-- {
			j := r.intn(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		for _, class := range block {
			out = append(out, request{
				class:   class,
				operand: r.intn(classOperands[class]),
				verify:  (len(out)+1)%verifyEvery == 0,
			})
		}
	}
	return out[:n]
}
