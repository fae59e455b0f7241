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
	w    int // live width: n in phase 1, artStart once the artificials retire

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

	// Per-iteration scratch. ratioTest records in rows the rows where
	// the entering column is nonzero, the only rows a pivot or a bound
	// flip changes; pivot compacts the pivot row's nonzeros into
	// nzbuf (columns) and vals (their scaled values).
	rows  []int32
	nzbuf []int32
	vals  []float64
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
			rhs -= float64(t.Coeff * p.lo[t.Var])
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
	s.rows, s.nzbuf, s.vals = sized(s.rows, m)[:0], sized(s.nzbuf, n)[:0], sized(s.vals, n)[:0]
	s.m, s.n, s.w, s.nStruct, s.artStart, s.pivots = m, n, n, nStruct, nStruct+nSlack, 0
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
		obj += float64(c * x[j])
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
// (its upper bound is forced to zero). Banned columns are never read
// again, so the live width shrinks to the structural and slack columns:
// phase 2 prices, scans and eliminates only those.
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
				s.column(j)
				s.pivot(i, j, false)
				break
			}
		}
	}
	for j := s.artStart; j < s.n; j++ {
		s.banned[j] = true
		s.u[j] = 0
	}
	s.w = s.artStart
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
	for j := 0; j < s.w; j++ {
		s.zrow[j] = colCost(j)
	}
	for i, bc := range s.basis {
		cb := colCost(bc)
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j < s.w; j++ {
			s.zrow[j] -= float64(cb * row[j])
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
		if status, done := s.step(iter > blandAfter); done {
			return status, nil
		}
	}
	return Optimal, ErrIterationLimit
}

// step runs one iteration: pricing, the ratio test, then a bound flip or
// a pivot. done reports that the phase ended, optimal or unbounded.
func (s *simplex) step(bland bool) (status Status, done bool) {
	e := s.chooseEntering(bland)
	if e < 0 {
		return Optimal, true
	}
	limitRow, limitKind := s.ratioTest(e)
	switch limitKind {
	case limitNone:
		return Unbounded, true
	case limitSelf:
		s.flipColumn(e)
	case limitLower:
		s.pivot(limitRow, e, false)
	case limitUpper:
		// The leaving basic variable exits at its upper bound: it is
		// flipped so that it leaves at zero.
		s.pivot(limitRow, e, true)
	}
	return Optimal, false
}

// eligible reports whether nonbasic column j may enter.
func (s *simplex) eligible(j int) bool {
	return s.rowOf[j] < 0 && !s.banned[j] && s.u[j] != 0
}

// chooseEntering returns the nonbasic column with the most negative
// reduced cost below -epsCost (Dantzig's rule), the first such column on
// a tie, or with bland the first improving column at all; -1 when none
// is. The reduced-cost test comes first: it rejects almost every column,
// so the eligibility lookups run only for improving ones, and a NaN
// reduced cost fails it. Dantzig's scan runs in two independent lanes,
// the even and the odd columns, whose winners are combined with the same
// lowest-index tie-break.
func (s *simplex) chooseEntering(bland bool) int {
	z := s.zrow[:s.w]
	if bland {
		for j, rc := range z {
			if rc < -epsCost && s.eligible(j) {
				return j
			}
		}
		return -1
	}
	b0, v0, b1, v1 := -1, -epsCost, -1, -epsCost
	j := 0
	for ; j+1 < len(z); j += 2 {
		pair := z[j : j+2 : j+2]
		if rc := pair[0]; rc < v0 && s.eligible(j) {
			b0, v0 = j, rc
		}
		if rc := pair[1]; rc < v1 && s.eligible(j+1) {
			b1, v1 = j+1, rc
		}
	}
	if j < len(z) {
		if rc := z[j]; rc < v0 && s.eligible(j) {
			b0, v0 = j, rc
		}
	}
	if b1 >= 0 && (b0 < 0 || v1 < v0 || (v1 == v0 && b1 < b0)) {
		return b1
	}
	return b0
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
// together with Bland's entering rule prevents cycling. It leaves in
// s.rows the rows where column e is nonzero, for the flip or pivot that
// follows.
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
	rows := s.rows[:0]
	for i, ti := range s.tab {
		d := ti[e]
		if d == 0 {
			continue
		}
		rows = append(rows, int32(i))
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
	s.rows = rows
	if math.IsInf(limit, 1) {
		return -1, limitNone
	}
	return row, kind
}

// column leaves in s.rows the rows where column e is nonzero, as
// ratioTest does, for a pivot that no ratio test chose.
func (s *simplex) column(e int) {
	rows := s.rows[:0]
	for i, ti := range s.tab {
		if ti[e] != 0 {
			rows = append(rows, int32(i))
		}
	}
	s.rows = rows
}

// flipColumn complements nonbasic column j (x -> u - x), moving it between
// its bounds without a basis change. It walks only s.rows, the rows where
// column j is nonzero.
func (s *simplex) flipColumn(j int) {
	uj := s.u[j]
	for _, i := range s.rows {
		ti := s.tab[i]
		c := ti[j]
		s.bhat[i] -= float64(c * uj)
		if s.bhat[i] < 0 && s.bhat[i] > -1e-9 {
			s.bhat[i] = 0
		}
		ti[j] = -c
	}
	s.zrow[j] = -s.zrow[j]
	s.flipped[j] = !s.flipped[j]
	s.pivots++ // a bound flip counts as an iteration
}

// pivot makes column e basic in row r via Gauss-Jordan elimination,
// eliminating e from s.rows, the rows where it is nonzero. With flip the
// leaving basic variable exits at its upper bound, so it is complemented
// first (x = u - x'): the rhs becomes u - bhat and every entry of row r
// but the basic column's changes sign.
//
// Row r is read once: one pass flips and scales it and compacts its
// nonzeros into (nzbuf, vals). The elimination of the other rows and of
// zrow then reads only the compact values, and the routing and locality
// LPs' sparse rows make early pivots near-free.
func (s *simplex) pivot(r, e int, flip bool) {
	s.pivots++
	rowR := s.tab[r][:s.w]
	// A flip negates an entry and the pivot both, so an entry's factor
	// stays 1/rowR[e] ((-v)·(1/-p) and v·(1/p) are the same double); only
	// bhat[r] and the zeros take the sign. The basic column keeps its
	// sign, so it is negated first and the pass restores it.
	scale := 1 / rowR[e]
	inv := scale
	if flip {
		col := s.basis[r]
		s.bhat[r] = s.u[col] - s.bhat[r]
		s.flipped[col] = !s.flipped[col]
		inv = -scale
		if col < len(rowR) {
			rowR[col] = -rowR[col]
		}
	}
	// The pivot entry ends at exactly 1 and column e of every other row
	// at exactly 0, so it stays out of the compact row.
	rowR[e] = 0
	nz, vals := s.nzbuf[:0], s.vals[:0]
	for j, v := range rowR {
		if v != 0 {
			v *= scale
			rowR[j] = v
			nz = append(nz, int32(j))
			vals = append(vals, v)
		} else if flip {
			rowR[j] = -v
		}
	}
	s.nzbuf, s.vals = nz, vals
	rowR[e] = 1
	s.bhat[r] *= inv
	br := s.bhat[r]

	for _, i := range s.rows {
		if int(i) == r {
			continue
		}
		rowI := s.tab[i]
		f := rowI[e]
		axpy(rowI, f, nz, vals)
		rowI[e] = 0
		s.bhat[i] -= float64(f * br)
		if s.bhat[i] < 0 && s.bhat[i] > -1e-9 {
			s.bhat[i] = 0
		}
	}
	if f := s.zrow[e]; f != 0 {
		axpy(s.zrow, f, nz, vals)
		s.zrow[e] = 0
	}
	s.setBasic(r, e)
}

// axpy subtracts f times the compact row (nz, vals) from row, four
// entries per step: the entries are distinct, so their updates are
// independent.
func axpy(row []float64, f float64, nz []int32, vals []float64) {
	vals = vals[:len(nz)]
	k := 0
	for ; k+4 <= len(nz); k += 4 {
		j, v := nz[k:k+4:k+4], vals[k:k+4:k+4]
		row[j[0]] -= float64(f * v[0])
		row[j[1]] -= float64(f * v[1])
		row[j[2]] -= float64(f * v[2])
		row[j[3]] -= float64(f * v[3])
	}
	for ; k < len(nz); k++ {
		row[nz[k]] -= float64(f * vals[k])
	}
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
