// Package ipe implements INSPIRE's core contribution: hardware-friendly
// Index-Pair Encoding of quantized weight matrices.
//
// A dot product over b-bit quantized weights can be refactored by weight
// value: y[o] = Σ_v v · Σ_{i ∈ S(o,v)} x[i], where S(o,v) is the set of
// input indices whose weight in row o equals code v. The multiplies collapse
// to one per distinct value per row; the remaining cost is summing the index
// sets. Those sets overlap heavily across rows and values, and IPE harvests
// the overlap the way byte-pair encoding compresses text: it repeatedly
// replaces a frequently co-occurring *pair* of symbols with a fresh symbol
// whose partial sum x[a]+x[b] is computed once per input and reused
// everywhere the pair appeared.
//
// "Hardware-friendly" is enforced by three encoder constraints:
//
//   - MaxDict bounds the pair dictionary so the partial-sum scratchpad fits
//     in on-chip SRAM;
//   - MaxDepth bounds each symbol's expansion depth, bounding the adder
//     dependency chain of the decode pipeline;
//   - TileSize restricts merging to input tiles, so both operands of every
//     pair are co-resident in the input buffer (no long-range gathers).
//
// The resulting Program is a flat, position-independent instruction stream
// (PAIR entries followed by per-row EMIT terms) that internal/accel maps to
// cycles and energy on the simulated accelerator.
package ipe

import (
	"fmt"
)

// Policy selects the merge strategy of the encoder.
type Policy int

const (
	// PolicyLayered (default) performs batched rounds: each round counts
	// all adjacent symbol pairs once and merges every legal pair that
	// repeats, left to right without overlap. Rounds align naturally with
	// adder-tree stages in hardware, and encoding is O(rounds·stream).
	PolicyLayered Policy = iota
	// PolicyGreedy is textbook BPE: recount and merge the single most
	// frequent pair per iteration. Quadratic in the worst case; used for
	// small layers and as an ablation reference.
	PolicyGreedy
)

// String returns the policy's name.
func (p Policy) String() string {
	switch p {
	case PolicyLayered:
		return "layered"
	case PolicyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config holds the hardware-friendliness knobs of the encoder.
type Config struct {
	// MaxDict bounds the number of pair dictionary entries (merged
	// symbols). 0 means unlimited.
	MaxDict int
	// MaxDepth bounds the expansion depth of merged symbols: raw inputs
	// have depth 0 and a pair has depth max(depth(a), depth(b))+1.
	// 0 means unlimited.
	MaxDepth int
	// TileSize restricts pairs to symbols living in the same input tile of
	// this many raw indices. 0 disables the tile constraint (global
	// encoding).
	TileSize int
	// Policy selects the merge strategy; the zero value is PolicyLayered.
	Policy Policy
	// MinPairCount is the minimum number of co-occurrences a pair needs to
	// be merged. Values below 2 are treated as 2 (a single occurrence can
	// never pay for its dictionary entry).
	MinPairCount int
}

// DefaultConfig returns the configuration used throughout the paper's main
// experiments: a 4096-entry dictionary, depth 8, 256-wide tiles.
func DefaultConfig() Config {
	return Config{MaxDict: 4096, MaxDepth: 8, TileSize: 256, Policy: PolicyLayered}
}

func (c Config) minCount() int {
	if c.MinPairCount < 2 {
		return 2
	}
	return c.MinPairCount
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.MaxDict < 0 || c.MaxDepth < 0 || c.TileSize < 0 {
		return fmt.Errorf("ipe: negative config value: %+v", c)
	}
	if c.Policy != PolicyLayered && c.Policy != PolicyGreedy {
		return fmt.Errorf("ipe: unknown policy %d", c.Policy)
	}
	return nil
}

// Pair is one dictionary entry: the merged symbol's partial sum is
// vals[A] + vals[B]. A and B are symbol ids (raw input index if < K, or
// K+j for dictionary entry j < current).
type Pair struct {
	A, B int32
}

// Term is one value group of an output row: the row accumulates
// Value · Σ vals[sym] over Syms. Code keeps the integer weight code for the
// exact integer execution path; Value is the dequantized (scale-folded)
// coefficient used by the float path.
type Term struct {
	Code  int32
	Value float32
	Syms  []int32
}

// Row is the encoded form of one output neuron (one weight matrix row).
type Row struct {
	Terms []Term
}

// Program is a complete encoded layer: a pair dictionary in dependency
// order followed by per-row emit terms. Symbol ids 0..K-1 denote raw
// inputs; K+j denotes dictionary entry j.
type Program struct {
	// K is the reduction (input) length of the encoded matrix.
	K int
	// M is the number of output rows.
	M int
	// Pairs is the dictionary in dependency order: Pairs[j] may reference
	// raw symbols and dictionary entries < j only.
	Pairs []Pair
	// Rows holds the per-output emit terms.
	Rows []Row
	// Bits records the quantization bit-width the program was built from.
	Bits int
	// Config echoes the encoder configuration for reporting.
	Config Config
	// Depth[j] is the expansion depth of dictionary entry j.
	Depth []int32

	// compiled caches the lowered executable form (see compile.go),
	// populated lazily by Compiled() under the package compile lock.
	compiled *Compiled
}

// NumSymbols returns the total symbol count, raw inputs plus dictionary.
func (p *Program) NumSymbols() int { return p.K + len(p.Pairs) }

// DictSize returns the number of live dictionary entries.
func (p *Program) DictSize() int { return len(p.Pairs) }

// MaxDepthUsed returns the deepest dictionary entry, 0 if the dictionary is
// empty.
func (p *Program) MaxDepthUsed() int {
	var m int32
	for _, d := range p.Depth {
		if d > m {
			m = d
		}
	}
	return int(m)
}

// Validate checks the structural invariants of the program: dependency
// order of the dictionary, symbol ids in range, and — when the program was
// built with bounds — that the bounds hold.
func (p *Program) Validate() error {
	if err := p.checkStreams(); err != nil {
		return fmt.Errorf("ipe: %w", err)
	}
	if len(p.Depth) != len(p.Pairs) {
		return fmt.Errorf("ipe: depth table length %d != dictionary size %d", len(p.Depth), len(p.Pairs))
	}
	if p.Config.MaxDict > 0 && len(p.Pairs) > p.Config.MaxDict {
		return fmt.Errorf("ipe: dictionary size %d exceeds MaxDict %d", len(p.Pairs), p.Config.MaxDict)
	}
	if p.Config.MaxDepth > 0 && p.MaxDepthUsed() > p.Config.MaxDepth {
		return fmt.Errorf("ipe: depth %d exceeds MaxDepth %d", p.MaxDepthUsed(), p.Config.MaxDepth)
	}
	for r, row := range p.Rows {
		for _, t := range row.Terms {
			if t.Code == 0 {
				return fmt.Errorf("ipe: row %d has a zero-code term", r)
			}
			if len(t.Syms) == 0 {
				return fmt.Errorf("ipe: row %d has an empty term", r)
			}
		}
	}
	return nil
}

// checkStreams reports the first defect that would let a symbol index leave
// the program's scratchpad: a pair operand out of dependency order, a row
// count other than M, or a term symbol outside [0, NumSymbols()). Validate
// rejects such programs, and compile refuses to lower them, because the
// compiled matrix kernels index without bounds checks.
func (p *Program) checkStreams() error {
	for j, pr := range p.Pairs {
		lim := int32(p.K + j)
		if pr.A < 0 || pr.B < 0 || pr.A >= lim || pr.B >= lim {
			return fmt.Errorf("pair %d references symbol out of dependency order (A=%d B=%d limit=%d)",
				j, pr.A, pr.B, lim)
		}
	}
	if len(p.Rows) != p.M {
		return fmt.Errorf("row count %d != M %d", len(p.Rows), p.M)
	}
	n := int32(p.NumSymbols())
	for r, row := range p.Rows {
		for _, t := range row.Terms {
			for _, s := range t.Syms {
				if s < 0 || s >= n {
					return fmt.Errorf("row %d references invalid symbol %d", r, s)
				}
			}
		}
	}
	return nil
}

// Stats reports what the encoder did.
type Stats struct {
	// Rounds is the number of merge rounds (layered) or iterations
	// (greedy) performed.
	Rounds int
	// Merges is the number of dictionary entries created before dead-entry
	// compaction.
	Merges int
	// DeadPruned is the number of provisional entries removed because no
	// surviving row referenced them.
	DeadPruned int
	// InputSymbols is the total index-stream length before merging
	// (i.e. the number of nonzero weight codes).
	InputSymbols int
	// OutputSymbols is the total stream length after merging.
	OutputSymbols int
}

// CompressionRatio is InputSymbols/OutputSymbols, the stream-length shrink
// achieved by pair merging (≥ 1).
func (s Stats) CompressionRatio() float64 {
	if s.OutputSymbols == 0 {
		return 1
	}
	return float64(s.InputSymbols) / float64(s.OutputSymbols)
}
