// Multi-process mode: -rank N turns this invocation into one rank of a real
// TCP cluster instead of the whole simulated machine. Every rank runs the
// same command line (same matrix, seed, K, p) plus its own -rank; peers find
// each other either through -peers (an explicit address list) or through a
// -rendezvous directory where each rank publishes its bound address. The
// ledger runs on the wall clock, and rank 0 gathers the C row blocks over
// the same transport the multiply used.
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"twoface"
	"twoface/internal/cluster"
	"twoface/internal/kernels"
	"twoface/internal/transport/tcp"
)

// runTCP executes this process's rank of a multi-process run.
func runTCP(c cli) error {
	switch {
	case c.rank >= c.p:
		return fmt.Errorf("-rank %d out of range for -p %d", c.rank, c.p)
	case strings.ToLower(c.algo) != "twoface":
		return fmt.Errorf("multi-process mode runs the twoface algorithm only (got -algo %s)", c.algo)
	case c.chaosSeed != 0 || c.faultPlan != "":
		return fmt.Errorf("chaos is virtual-time machinery; it cannot run on the TCP transport")
	case c.recover:
		return fmt.Errorf("crash recovery is virtual-time machinery; it cannot run on the TCP transport")
	case c.plan != "":
		return fmt.Errorf("multi-process mode generates its workload from -matrix/-in (saved plans carry no digestable source)")
	case (c.peers == "") == (c.rendezvous == ""):
		return fmt.Errorf("multi-process mode needs exactly one of -peers or -rendezvous")
	}

	a, err := loadMatrix(c.in, c.name, c.scale, c.seed)
	if err != nil {
		return err
	}
	digest := workloadDigest(c, a)

	logger, _, err := twoface.SetupLogging(fmt.Sprintf("twoface-run[%d]", c.rank), c.logLevel, c.logJSON)
	if err != nil {
		return err
	}

	addrs, ln, err := resolveEndpoints(c)
	if err != nil {
		return err
	}
	tcfg := tcp.Config{Rank: c.rank, Addrs: addrs, Listener: ln, Digest: digest}
	if c.logLevel != "" {
		tcfg.Logger = logger
	}
	tr, err := tcp.New(tcfg)
	if err != nil {
		ln.Close()
		return err
	}
	defer tr.Close()

	opts := c.options()
	opts.Transport = tr
	// A wall-clock run measures the arithmetic; -verify=false only skips the
	// reference check here.
	opts.TimingOnly = false
	if c.logLevel != "" {
		opts.Logger = logger
	}
	sys, err := twoface.New(opts)
	if err != nil {
		return err
	}

	// Every rank preprocesses the full matrix (the digest handshake already
	// guarantees they preprocess the *same* matrix, so the classifications
	// agree) and keeps only its own part live.
	pl, err := sys.Preprocess(a)
	if err != nil {
		return err
	}
	if c.rank == 0 {
		st := a.ComputeStats()
		ps := pl.Stats()
		fmt.Printf("A: %dx%d, %d nonzeros; K=%d, p=%d ranks (multi-process TCP)\n",
			st.NumRows, st.NumCols, st.NNZ, c.k, c.p)
		fmt.Printf("classified: %d sync stripes, %d async stripes\n", ps.SyncStripes, ps.AsyncStripes)
	}

	b := twoface.RandomDense(int(a.NumCols), c.k, c.seed+1)
	res, err := pl.Multiply(b)
	if err != nil {
		return err
	}

	if err := gatherC(pl, res, c.rank, c.k); err != nil {
		return fmt.Errorf("gathering C: %w", err)
	}

	if c.rank != 0 {
		return nil // rank 0 owns reporting
	}
	if c.verify {
		want, err := twoface.Reference(a, b)
		if err != nil {
			return err
		}
		if !res.C.AlmostEqual(want, 1e-9) {
			return fmt.Errorf("gathered result does not match the reference kernel")
		}
		fmt.Println("verified against the reference kernel")
	}
	report(res)
	if c.writeC != "" {
		if err := writeCFile(c.writeC, res.C); err != nil {
			return err
		}
		fmt.Printf("wrote C: %s\n", c.writeC)
	}
	return nil
}

// gatherC assembles the full C on rank 0: each rank publishes its local row
// block as a one-sided window, rank 0 reads every peer's block into its own
// full-size C, and a closing barrier keeps peers alive until the reads land.
func gatherC(pl *twoface.Plan, res *twoface.Result, rank, k int) error {
	blocks := pl.RowBlocks()
	tr := pl.Transport()
	lo, hi := blocks[rank][0], blocks[rank][1]
	tr.Expose(rank, "C.gather", res.C.Data[lo*k:hi*k])
	if err := tr.Barrier(rank); err != nil {
		return err
	}
	if rank == 0 {
		for peer := 1; peer < len(blocks); peer++ {
			plo, phi := blocks[peer][0], blocks[peer][1]
			if phi == plo {
				continue
			}
			n := int64((phi - plo) * k)
			if _, err := tr.Read(0, peer, "C.gather", []cluster.Region{{Off: 0, Elems: n}},
				res.C.Data[plo*k:phi*k]); err != nil {
				return fmt.Errorf("rank %d's block: %w", peer, err)
			}
		}
	}
	return tr.Barrier(rank)
}

// resolveEndpoints produces the full rank→address table and this rank's
// bound listener, either from an explicit -peers list or by publishing
// through a -rendezvous directory.
func resolveEndpoints(c cli) ([]string, net.Listener, error) {
	if c.peers != "" {
		addrs := strings.Split(c.peers, ",")
		if len(addrs) != c.p {
			return nil, nil, fmt.Errorf("-peers lists %d addresses, -p is %d", len(addrs), c.p)
		}
		ln, err := net.Listen("tcp", addrs[c.rank])
		if err != nil {
			return nil, nil, fmt.Errorf("binding %s for rank %d: %w", addrs[c.rank], c.rank, err)
		}
		return addrs, ln, nil
	}
	// Rendezvous: bind an ephemeral port, publish it as rank-N.addr (write
	// temp + rename so readers never see a partial file), poll for peers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(c.rendezvous, 0o755); err != nil {
		ln.Close()
		return nil, nil, err
	}
	self := filepath.Join(c.rendezvous, fmt.Sprintf("rank-%d.addr", c.rank))
	tmp := self + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		ln.Close()
		return nil, nil, err
	}
	if err := os.Rename(tmp, self); err != nil {
		ln.Close()
		return nil, nil, err
	}
	addrs := make([]string, c.p)
	deadline := time.Now().Add(30 * time.Second)
	for r := 0; r < c.p; r++ {
		path := filepath.Join(c.rendezvous, fmt.Sprintf("rank-%d.addr", r))
		for {
			b, err := os.ReadFile(path)
			if err == nil && len(b) > 0 {
				addrs[r] = string(b)
				break
			}
			if time.Now().After(deadline) {
				ln.Close()
				return nil, nil, fmt.Errorf("rendezvous: rank %d never published %s", r, path)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return addrs, ln, nil
}

// workloadDigest fingerprints everything that must agree across ranks for
// one multiply to be meaningful: the matrix source and its realized shape,
// the dense seed, the partitioning-relevant knobs, and whether fused
// multiply-add kernels were asked for (by -allow-fma, not yet applied when the
// digest is taken, or by TWOFACE_ALLOW_FMA) — ranks that disagree on it would
// hand rank 0 row blocks that round differently. It feeds the TCP handshake,
// so two ranks started with different inputs refuse to pair.
func workloadDigest(c cli, a *twoface.SparseMatrix) uint64 {
	h := fnv.New64a()
	write := func(parts ...any) {
		for _, p := range parts {
			fmt.Fprintf(h, "%v|", p)
		}
	}
	st := a.ComputeStats()
	write("v2", c.in, c.name, math.Float64bits(c.scale), c.seed, c.k, c.p,
		c.allowFMA || kernels.FMAAllowed(), st.NumRows, st.NumCols, st.NNZ)
	return h.Sum64()
}

// writeCFile writes C as raw little-endian float64s (row-major), preceded by
// a 16-byte rows/cols header — enough structure for bitwise diffing between
// backends without inventing a real format.
func writeCFile(path string, c *twoface.DenseMatrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(c.Rows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(c.Cols))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	buf := make([]byte, 0, 8*len(c.Data))
	for _, v := range c.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
