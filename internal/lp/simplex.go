package lp

import (
	"math"

	"lowlat/internal/reuse"
)

// simplex is a dense two-phase primal simplex tableau with bounded
// variables. Internally every variable is shifted so its lower bound is 0;
// a nonbasic variable sitting at its upper bound is represented by flipping
// (substituting x' = u - x), so nonbasic variables are always at value 0
// and the textbook tableau invariants hold (bhat >= 0).
type simplex struct {
	m, n int // rows, total columns (structural + slack + artificial)

	tab  [][]float64 // m x n tableau, B^-1 A in the current coordinates
	bhat []float64   // B^-1 b, always >= 0
	zrow []float64   // reduced costs for the current phase
	cost []float64   // the current phase's cost vector

	u       []float64 // upper bound per column (post-shift), may be +Inf
	flipped []bool    // column currently complemented
	banned  []bool    // artificial columns excluded from entering in phase 2

	basis    []int // basic column per row
	rowOf    []int // row of a basic column, -1 if nonbasic
	nStruct  int   // number of structural (caller) variables
	artStart int   // first artificial column, n if none
	pivots   int
	nzbuf    []int32 // scratch: nonzero columns of the pivot row
}

const (
	epsCost  = 1e-9
	epsPivot = 1e-9
	epsFeas  = 1e-7
)

// Workspace holds every buffer of a solve whose size grows with the
// problem, so that consecutive solves allocate them only when a problem
// outgrows the last. The zero value is ready to use; see the package
// comment for the contract.
type Workspace struct {
	s     simplex   // the last solve's state; its slices keep their capacity
	cells []float64 // the m x n tableau, row-major; s.tab holds the row views
}

// sized returns n zero values, in buf's memory when it is large enough
// and otherwise grown as reuse.Grow grows every solver buffer.
func sized[T any](buf []T, n int) []T {
	buf = reuse.Grow(buf, n)
	clear(buf)
	return buf
}

// normOp is a row's operator once the row is scaled to a nonnegative rhs.
func normOp(op Op, rhs float64) Op {
	if rhs < 0 {
		switch op {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return op
}

func newSimplex(p *Problem, ws *Workspace) *simplex {
	nStruct, m := len(p.obj), len(p.rows)
	s := &ws.s

	// Shift variables to lower bound 0, folding the shift into each row's
	// rhs, and count columns: slacks for LE/GE, artificials for GE/EQ,
	// after a row with negative rhs is negated (below) so that rhs >= 0.
	s.bhat = sized(s.bhat, m)
	nSlack, nArt := 0, 0
	for i, r := range p.rows {
		rhs := r.rhs
		for _, t := range r.terms {
			rhs -= t.Coeff * p.lo[t.Var]
		}
		s.bhat[i] = rhs
		op := normOp(r.op, rhs)
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}
	n := nStruct + nSlack + nArt

	if cap(ws.cells) < m*n {
		// Let go of the old tableau, and the row views into it, before
		// allocating the larger one: while the workspace still held it the
		// collector could not, and place_cold's peak RSS rose 13 %.
		ws.cells = nil
		clear(s.tab[:cap(s.tab)])
	}
	ws.cells = sized(ws.cells, m*n)
	s.tab = sized(s.tab, m)
	s.zrow, s.cost, s.u = sized(s.zrow, n), sized(s.cost, n), sized(s.u, n)
	s.flipped, s.banned = sized(s.flipped, n), sized(s.banned, n)
	s.basis, s.rowOf = sized(s.basis, m), sized(s.rowOf, n)
	s.nzbuf = sized(s.nzbuf, n)[:0]
	s.m, s.n, s.nStruct, s.artStart, s.pivots = m, n, nStruct, nStruct+nSlack, 0
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	for j := 0; j < nStruct; j++ {
		s.u[j] = p.hi[j] - p.lo[j]
	}
	for j := nStruct; j < n; j++ {
		s.u[j] = math.Inf(1)
	}

	slack := nStruct
	art := s.artStart
	for i, r := range p.rows {
		row := ws.cells[i*n : (i+1)*n]
		for _, t := range r.terms {
			row[t.Var] += t.Coeff
		}
		op := normOp(r.op, s.bhat[i])
		if s.bhat[i] < 0 {
			for j, c := range row[:nStruct] {
				row[j] = -c
			}
			s.bhat[i] = -s.bhat[i]
		}
		switch op {
		case LE:
			row[slack] = 1
			s.setBasic(i, slack)
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			s.setBasic(i, art)
			art++
		case EQ:
			row[art] = 1
			s.setBasic(i, art)
			art++
		}
		s.tab[i] = row
	}
	return s
}

func (s *simplex) setBasic(row, col int) {
	if old := s.basis[row]; s.rowOf[old] == row {
		s.rowOf[old] = -1
	}
	s.basis[row] = col
	s.rowOf[col] = row
}

// solve runs both phases and extracts the solution in the caller's
// coordinates.
func (s *simplex) solve(p *Problem) (*Solution, error) {
	maxIter := 2000 + 200*(s.m+s.n)

	if s.artStart < s.n {
		// Phase 1: minimize the sum of artificials (cost starts zeroed).
		for j := s.artStart; j < s.n; j++ {
			s.cost[j] = 1
		}
		s.resetZrow()
		status, err := s.iterate(maxIter)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			// Cannot happen: the phase-1 objective is bounded below
			// by zero. Treat as numerical failure.
			return nil, ErrIterationLimit
		}
		if s.phase1Objective() > epsFeas {
			return &Solution{Status: Infeasible, Iterations: s.pivots}, nil
		}
		s.retireArtificials()
	}

	// Phase 2: the real objective.
	clear(s.cost[copy(s.cost, p.obj):])
	s.resetZrow()
	status, err := s.iterate(maxIter)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Iterations: s.pivots}, nil
	}

	x := s.extract(p)
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iterations: s.pivots}, nil
}

// phase1Objective sums the values of artificial variables (all of which are
// nonnegative and nonbasic-at-zero unless basic).
func (s *simplex) phase1Objective() float64 {
	sum := 0.0
	for i, col := range s.basis {
		if col >= s.artStart {
			sum += s.bhat[i]
		}
	}
	return sum
}

// retireArtificials pivots basic artificials out where possible and bans
// all artificial columns from re-entering. A basic artificial whose row has
// no eligible pivot is degenerate at zero and stays harmlessly in place
// (its upper bound is forced to zero).
func (s *simplex) retireArtificials() {
	for i := 0; i < s.m; i++ {
		col := s.basis[i]
		if col < s.artStart {
			continue
		}
		for j := 0; j < s.artStart; j++ {
			if s.rowOf[j] >= 0 || s.banned[j] {
				continue
			}
			if math.Abs(s.tab[i][j]) > 1e-7 {
				s.pivot(i, j)
				break
			}
		}
	}
	for j := s.artStart; j < s.n; j++ {
		s.banned[j] = true
		s.u[j] = 0
	}
}

// resetZrow recomputes reduced costs from scratch for the current phase's
// cost vector, accounting for flipped columns.
func (s *simplex) resetZrow() {
	colCost := func(j int) float64 {
		if s.flipped[j] {
			return -s.cost[j]
		}
		return s.cost[j]
	}
	for j := 0; j < s.n; j++ {
		s.zrow[j] = colCost(j)
	}
	for i, bc := range s.basis {
		cb := colCost(bc)
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j < s.n; j++ {
			s.zrow[j] -= cb * row[j]
		}
	}
	// Clean basic columns exactly.
	for _, bc := range s.basis {
		s.zrow[bc] = 0
	}
}

// iterate performs simplex pivots until optimal/unbounded for the current
// zrow, switching to Bland's rule after a burn-in to guarantee termination.
func (s *simplex) iterate(maxIter int) (Status, error) {
	blandAfter := 500 + 20*(s.m+s.n)
	for iter := 0; iter < maxIter; iter++ {
		bland := iter > blandAfter
		e := s.chooseEntering(bland)
		if e < 0 {
			return Optimal, nil
		}
		limitRow, limitKind := s.ratioTest(e)
		switch limitKind {
		case limitNone:
			return Unbounded, nil
		case limitSelf:
			s.flipColumn(e)
		case limitLower:
			s.pivot(limitRow, e)
		case limitUpper:
			// The leaving basic variable exits at its upper bound:
			// flip it first so it leaves at zero, then pivot.
			s.flipBasic(limitRow)
			s.pivot(limitRow, e)
		}
	}
	return Optimal, ErrIterationLimit
}

// chooseEntering returns the nonbasic column with the most negative
// reduced cost below -epsCost (Dantzig's rule), or with bland the first
// such column; -1 when none is. The reduced-cost test comes first: it
// rejects almost every column, so the eligibility lookups run only for
// improving ones. Written negated, it also rejects a NaN reduced cost.
func (s *simplex) chooseEntering(bland bool) int {
	best, bestVal := -1, -epsCost
	for j, rc := range s.zrow[:s.n] {
		if !(rc < bestVal) || s.rowOf[j] >= 0 || s.banned[j] || s.u[j] == 0 {
			continue
		}
		if bland {
			return j
		}
		best, bestVal = j, rc
	}
	return best
}

type limitKind int

const (
	limitNone  limitKind = iota // unbounded
	limitLower                  // a basic variable reaches 0
	limitUpper                  // a basic variable reaches its upper bound
	limitSelf                   // the entering variable reaches its own upper bound
)

// ratioTest determines how far the entering column e can increase. Ties
// between rows are broken towards the smallest basic column index, which
// together with Bland's entering rule prevents cycling.
func (s *simplex) ratioTest(e int) (int, limitKind) {
	limit := s.u[e] // +Inf when e is unbounded above
	kind := limitSelf
	row := -1
	better := func(t float64, i int) bool {
		if t < limit-1e-12 {
			return true
		}
		return t < limit+1e-12 && row >= 0 && s.basis[i] < s.basis[row]
	}
	for i := 0; i < s.m; i++ {
		d := s.tab[i][e]
		if d > epsPivot {
			if t := s.bhat[i] / d; t < limit || better(t, i) {
				limit, row, kind = t, i, limitLower
			}
		} else if d < -epsPivot {
			ub := s.u[s.basis[i]]
			if math.IsInf(ub, 1) {
				continue
			}
			if t := (ub - s.bhat[i]) / -d; t < limit || better(t, i) {
				limit, row, kind = t, i, limitUpper
			}
		}
	}
	if math.IsInf(limit, 1) {
		return -1, limitNone
	}
	return row, kind
}

// flipColumn complements nonbasic column j (x -> u - x), moving it between
// its bounds without a basis change.
func (s *simplex) flipColumn(j int) {
	uj := s.u[j]
	for i := 0; i < s.m; i++ {
		if c := s.tab[i][j]; c != 0 {
			s.bhat[i] -= c * uj
			if s.bhat[i] < 0 && s.bhat[i] > -1e-9 {
				s.bhat[i] = 0
			}
			s.tab[i][j] = -c
		}
	}
	s.zrow[j] = -s.zrow[j]
	s.flipped[j] = !s.flipped[j]
	s.pivots++ // a bound flip counts as an iteration
}

// flipBasic complements the basic variable of row r (which is about to
// leave at its upper bound) so that it leaves at zero instead.
func (s *simplex) flipBasic(r int) {
	col := s.basis[r]
	u := s.u[col]
	// The basic column is the unit vector e_r; substituting x = u - x'
	// updates the rhs and negates the column, then the row is rescaled
	// so the basic coefficient is +1 again.
	s.bhat[r] = u - s.bhat[r]
	for j := 0; j < s.n; j++ {
		if j != col {
			s.tab[r][j] = -s.tab[r][j]
		}
	}
	s.flipped[col] = !s.flipped[col]
}

// pivot makes column e basic in row r via Gauss-Jordan elimination. The
// elimination walks only the pivot row's nonzero columns: routing LPs
// start from very sparse rows, which makes early pivots near-free.
func (s *simplex) pivot(r, e int) {
	s.pivots++
	rowR := s.tab[r]
	inv := 1 / rowR[e]
	nz := s.nzbuf[:0]
	for j := 0; j < s.n; j++ {
		if v := rowR[j]; v != 0 {
			rowR[j] = v * inv
			nz = append(nz, int32(j))
		}
	}
	s.nzbuf = nz
	rowR[e] = 1
	s.bhat[r] *= inv

	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.tab[i][e]
		if f == 0 {
			continue
		}
		rowI := s.tab[i]
		for _, j := range nz {
			rowI[j] -= f * rowR[j]
		}
		rowI[e] = 0
		s.bhat[i] -= f * s.bhat[r]
		if s.bhat[i] < 0 && s.bhat[i] > -1e-9 {
			s.bhat[i] = 0
		}
	}
	if f := s.zrow[e]; f != 0 {
		for _, j := range nz {
			s.zrow[j] -= f * rowR[j]
		}
		s.zrow[e] = 0
	}
	s.setBasic(r, e)
}

// extract maps the tableau back to the caller's coordinates.
func (s *simplex) extract(p *Problem) []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		v := 0.0
		if r := s.rowOf[j]; r >= 0 {
			v = s.bhat[r]
		}
		if s.flipped[j] {
			v = s.u[j] - v
		}
		x[j] = v + p.lo[j]
		// Clamp tiny numerical spill outside the bounds.
		if x[j] < p.lo[j] {
			x[j] = p.lo[j]
		}
		if x[j] > p.hi[j] {
			x[j] = p.hi[j]
		}
	}
	return x
}
