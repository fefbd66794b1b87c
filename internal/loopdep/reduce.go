package loopdep

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Accumulator recognition. A ForAcc loop parallelizes only when the
// carried value is combined by an operation that is exact under
// re-association, so per-chunk partials folded in chunk order reproduce
// the serial result bit for bit:
//
//   - integer scalar add/and/or/xor (modular or idempotent — fully
//     associative and commutative at every width);
//   - integer scalar min/max (idempotent: each chunk may be seeded with
//     the loop's init value without changing the fold);
//   - lanewise integer vector adds (_mm*_add_epi*), which the paper's
//     quantized dot kernels use as vector accumulators; the partials
//     are folded by the vm's own semantic of the same intrinsic.
//
// Floating-point accumulators never qualify: re-association changes
// rounding, and the contract is byte-identical results.

// vecAdds lists the lanewise integer vector add intrinsics.
var vecAdds = map[string]bool{
	"_mm_add_epi8": true, "_mm_add_epi16": true, "_mm_add_epi32": true, "_mm_add_epi64": true,
	"_mm256_add_epi8": true, "_mm256_add_epi16": true, "_mm256_add_epi32": true, "_mm256_add_epi64": true,
	"_mm512_add_epi32": true, "_mm512_add_epi64": true,
}

// reduction recognizes the accumulator update of a ForAcc body. It
// requires the carried symbol to flow through a single-use chain of one
// whitelisted operation ending at the block result (quantized dot
// kernels chain two vector adds per iteration), so seeding a chunk with
// the operation's identity — or the init value, for idempotent ops —
// and folding the partials afterwards is exact.
func reduction(f *ir.Func, body *ir.Block) (*Reduction, string) {
	acc := body.Params[1]
	res, ok := body.Result.(ir.Sym)
	if !ok {
		return nil, "accumulator result is not a staged node"
	}
	uses := map[int]int{}
	countBlockUses(body, uses)
	if uses[acc.ID] == 0 {
		return nil, "carried value is unused: not a recognized reduction"
	}
	if uses[acc.ID] != 1 {
		return nil, "carried value is used more than once per iteration"
	}

	red := &Reduction{Typ: acc.Typ}
	cur := acc
	for hops := 0; hops <= len(body.Nodes); hops++ {
		user := topUser(body, cur)
		if user == nil {
			return nil, "carried value escapes into a nested block"
		}
		op, vec, okOp := reduceKind(user.Def, cur)
		if !okOp {
			return nil, fmt.Sprintf("carried value flows through %s, which is not an exact re-associable reduction", user.Def.Op)
		}
		if red.Op == "" {
			red.Op, red.Vec = op, vec
		} else if red.Op != op {
			return nil, fmt.Sprintf("mixed operations in reduction chain (%s vs %s)", red.Op, op)
		}
		if user.Sym.ID == res.ID {
			return red, ""
		}
		if uses[user.Sym.ID] != 1 {
			return nil, "reduction chain value is used outside the chain"
		}
		cur = user.Sym
	}
	return nil, "carried value does not reach the loop result"
}

// countBlockUses tallies every symbol reference inside b, nested blocks
// included.
func countBlockUses(b *ir.Block, uses map[int]int) {
	if s, ok := b.Result.(ir.Sym); ok {
		uses[s.ID]++
	}
	for _, n := range b.Nodes {
		for _, a := range n.Def.Args {
			if s, ok := a.(ir.Sym); ok {
				uses[s.ID]++
			}
		}
		for _, blk := range n.Def.Blocks {
			countBlockUses(blk, uses)
		}
	}
}

// topUser finds the top-level body node consuming s as a direct
// argument (nil when the single use sits in a nested block or the block
// result).
func topUser(b *ir.Block, s ir.Sym) *ir.Node {
	for _, n := range b.Nodes {
		for _, a := range n.Def.Args {
			if as, ok := a.(ir.Sym); ok && as.ID == s.ID {
				return n
			}
		}
	}
	return nil
}

// reduceKind classifies one chain step: d must combine cur (appearing
// exactly once) with an iteration-local value under a whitelisted op.
func reduceKind(d *ir.Def, cur ir.Sym) (op string, vec, ok bool) {
	if len(d.Args) != 2 || len(d.Blocks) != 0 {
		return "", false, false
	}
	hits := 0
	for _, a := range d.Args {
		if as, isSym := a.(ir.Sym); isSym && as.ID == cur.ID {
			hits++
		}
	}
	if hits != 1 {
		return "", false, false
	}
	switch d.Op {
	case ir.OpAdd, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpMin, ir.OpMax:
		return d.Op, false, d.Typ.IsInteger()
	}
	return d.Op, true, vecAdds[d.Op]
}

// SeedsWithInit reports whether chunk partials must be seeded with the
// loop's init value (idempotent min/max) rather than the op identity.
func (r *Reduction) SeedsWithInit() bool {
	return !r.Vec && (r.Op == ir.OpMin || r.Op == ir.OpMax)
}

// String renders the reduction for diagnostics.
func (r *Reduction) String() string {
	if r.Vec {
		return fmt.Sprintf("lanewise %s", strings.TrimPrefix(r.Op, "_"))
	}
	return fmt.Sprintf("%s %s", r.Typ.GoName(), r.Op)
}
