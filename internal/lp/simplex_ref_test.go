package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The tableau constructor newSimplex replaced, kept as the reference: a
// dense normRow per constraint, then a second dense row it is copied into,
// every buffer allocated fresh. The single-copy constructor must build the
// same tableau bit for bit, so every pivot — and with it Solution.X and
// every stored placement byte — is unchanged.
func refNewSimplex(p *Problem) *simplex {
	nStruct := len(p.obj)

	type normRow struct {
		coef []float64 // dense over structural vars
		op   Op
		rhs  float64
	}
	rows := make([]normRow, len(p.rows))
	for i, r := range p.rows {
		nr := normRow{coef: make([]float64, nStruct), op: r.op, rhs: r.rhs}
		for _, t := range r.terms {
			nr.coef[t.Var] += t.Coeff
			nr.rhs -= t.Coeff * p.lo[t.Var]
		}
		if nr.rhs < 0 {
			for j := range nr.coef {
				nr.coef[j] = -nr.coef[j]
			}
			nr.rhs = -nr.rhs
			switch nr.op {
			case LE:
				nr.op = GE
			case GE:
				nr.op = LE
			}
		}
		rows[i] = nr
	}

	nSlack, nArt := 0, 0
	for _, r := range rows {
		if r.op == LE || r.op == GE {
			nSlack++
		}
		if r.op == GE || r.op == EQ {
			nArt++
		}
	}
	m := len(rows)
	n := nStruct + nSlack + nArt

	s := &simplex{
		m: m, n: n,
		tab:      make([][]float64, m),
		bhat:     make([]float64, m),
		zrow:     make([]float64, n),
		cost:     make([]float64, n),
		u:        make([]float64, n),
		flipped:  make([]bool, n),
		banned:   make([]bool, n),
		basis:    make([]int, m),
		rowOf:    make([]int, n),
		nStruct:  nStruct,
		artStart: nStruct + nSlack,
	}
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
	for i, r := range rows {
		row := make([]float64, n)
		copy(row, r.coef)
		s.bhat[i] = r.rhs
		switch r.op {
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

// sameBits is == on every element with -0 and +0 told apart.
func sameBits(a, b []float64) bool {
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

// sameSolution compares two solve outcomes bit for bit.
func sameSolution(a *Solution, aerr error, b *Solution, berr error) error {
	if aerr != berr || (a == nil) != (b == nil) {
		return fmt.Errorf("errors differ: %v vs %v", aerr, berr)
	}
	if a == nil {
		return nil
	}
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || !sameBits(a.X, b.X) {
		return fmt.Errorf("solutions differ: %v/%d pivots/obj %v vs %v/%d pivots/obj %v",
			a.Status, a.Iterations, a.Objective, b.Status, b.Iterations, b.Objective)
	}
	return nil
}

// DiffAgainstRef builds p's tableau with the reference constructor and
// with newSimplex in ws, compares the two initial states, then solves both
// and compares the outcomes. It returns the first difference.
func DiffAgainstRef(p *Problem, ws *Workspace) error {
	ref, got := refNewSimplex(p), newSimplex(p, ws)
	if ref.m != got.m || ref.n != got.n || ref.nStruct != got.nStruct || ref.artStart != got.artStart {
		return fmt.Errorf("shape differs: ref %dx%d (%d structural, artificials from %d), got %dx%d (%d, %d)",
			ref.m, ref.n, ref.nStruct, ref.artStart, got.m, got.n, got.nStruct, got.artStart)
	}
	for i := range ref.tab {
		if !sameBits(ref.tab[i], got.tab[i]) {
			return fmt.Errorf("tableau row %d differs", i)
		}
	}
	if !sameBits(ref.bhat, got.bhat) || !sameBits(ref.u, got.u) {
		return fmt.Errorf("bhat or upper bounds differ")
	}
	if !reflect.DeepEqual(ref.basis, got.basis) || !reflect.DeepEqual(ref.rowOf, got.rowOf) {
		return fmt.Errorf("initial basis differs")
	}
	rs, rerr := ref.solve(p)
	gs, gerr := got.solve(p)
	return sameSolution(rs, rerr, gs, gerr)
}

// SetSolveHook installs f as the tap on every problem solved (nil removes
// it), for the external tests that drive the path solver.
func SetSolveHook(f func(*Problem)) { testHookSolve = f }

// randomLP draws a small LP exercising everything the constructor
// branches on: all three operators, negative rhs (row negation, phase 1),
// nonzero lower bounds (rhs shift), finite, zero-width and infinite upper
// bounds, duplicate and missing terms.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 1 + rng.Intn(12)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(5) - 2)
		hi := math.Inf(1)
		if rng.Intn(3) > 0 {
			hi = lo + float64(rng.Intn(6))
		}
		obj := float64(rng.Intn(9) - 4)
		if rng.Intn(4) == 0 {
			obj = rng.NormFloat64()
		}
		p.AddVar(lo, hi, obj)
	}
	for i, m := 0, 1+rng.Intn(10); i < m; i++ {
		var terms []Term
		for k, nt := 0, rng.Intn(n+3); k < nt; k++ { // may repeat a variable
			c := float64(rng.Intn(9) - 4)
			if rng.Intn(3) == 0 {
				c = rng.NormFloat64()
			}
			terms = append(terms, Term{rng.Intn(n), c})
		}
		p.AddConstraint(Op(rng.Intn(3)), float64(rng.Intn(14)-5), terms...)
	}
	return p
}

// TestTableauMatchesReference compares constructor and solve against the
// reference over seeded random LPs, all built in one workspace so that
// every size change (up and down) also checks for stale cells.
func TestTableauMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws Workspace
	seen := map[Status]int{}
	phase1 := 0
	for trial := 0; trial < 800; trial++ {
		p := randomLP(rng)
		if err := DiffAgainstRef(p, &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen[sol.Status]++
		if s := newSimplex(p, &ws); s.artStart < s.n {
			phase1++
		}
	}
	if seen[Optimal] == 0 || seen[Infeasible] == 0 || seen[Unbounded] == 0 || phase1 == 0 {
		t.Fatalf("generator too narrow: statuses %v, %d LPs with artificials", seen, phase1)
	}
}

// growingLP is a seeded LP of the given size with dense-ish rows, standing
// in for one growth round of the path LP.
func growingLP(seed int64, n, m int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar(0, 1+float64(rng.Intn(4)), rng.NormFloat64())
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{j, rng.NormFloat64()})
			}
		}
		p.AddConstraint(Op(rng.Intn(2)), float64(rng.Intn(7)-2), terms...)
	}
	return p
}

// TestWorkspaceReuse solves A, a smaller B, then A again in one workspace
// and requires each to equal a fresh solve bit for bit: a cell left over
// from a larger tableau must never leak into a later one. Two solvers do
// so at once, each with its own workspace, for the race detector.
func TestWorkspaceReuse(t *testing.T) {
	a, b := growingLP(1, 40, 25), growingLP(2, 9, 6)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws Workspace
			for round, p := range []*Problem{a, b, a, b, a} {
				want, werr := p.SolveIn(new(Workspace))
				got, gerr := p.SolveIn(&ws)
				if err := sameSolution(want, werr, got, gerr); err != nil {
					t.Errorf("round %d: reused workspace: %v", round, err)
				}
			}
		}()
	}
	wg.Wait()
}

// refChooseEntering is the pricing scan chooseEntering replaced, kept as
// the reference: eligibility first, then the reduced cost. The two must
// pick the same column at every iteration, so every pivot is unchanged.
func refChooseEntering(s *simplex, bland bool) int {
	best, bestVal := -1, -epsCost
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] >= 0 || s.banned[j] || s.u[j] == 0 {
			continue
		}
		if rc := s.zrow[j]; rc < bestVal {
			if bland {
				return j
			}
			best, bestVal = j, rc
		}
	}
	return best
}

// sameEntering compares both scans, Dantzig's and Bland's, on s.
func sameEntering(s *simplex) error {
	for _, bland := range []bool{false, true} {
		if got, want := s.chooseEntering(bland), refChooseEntering(s, bland); got != want {
			return fmt.Errorf("bland=%v: chooseEntering picked column %d, the reference %d", bland, got, want)
		}
	}
	return nil
}

// solveComparingScans is solve with iterate's loop spelled out so that
// sameEntering runs before every pricing decision of both phases. It
// returns the first disagreement, or the solve's outcome.
func solveComparingScans(s *simplex, p *Problem) (*Solution, error) {
	maxIter := 2000 + 200*(s.m+s.n)
	blandAfter := 500 + 20*(s.m+s.n)
	iterate := func() (Status, error) {
		for iter := 0; iter < maxIter; iter++ {
			if err := sameEntering(s); err != nil {
				return Optimal, fmt.Errorf("iteration %d: %w", iter, err)
			}
			e := s.chooseEntering(iter > blandAfter)
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
				s.flipBasic(limitRow)
				s.pivot(limitRow, e)
			}
		}
		return Optimal, ErrIterationLimit
	}
	if s.artStart < s.n {
		for j := s.artStart; j < s.n; j++ {
			s.cost[j] = 1
		}
		s.resetZrow()
		if _, err := iterate(); err != nil {
			return nil, err
		}
		if s.phase1Objective() > epsFeas {
			return &Solution{Status: Infeasible, Iterations: s.pivots}, nil
		}
		s.retireArtificials()
	}
	clear(s.cost[copy(s.cost, p.obj):])
	s.resetZrow()
	status, err := iterate()
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Iterations: s.pivots}, nil
	}
	return &Solution{Status: Optimal, Iterations: s.pivots}, nil
}

// TestPricingMatchesReference runs the seeded LPs of
// TestTableauMatchesReference and, before every pivot of both phases,
// asks both pricing scans for their column with and without Bland's rule.
// The stepwise solve must also end where Solve does, pivot for pivot, so
// the fence covers the iterations the real solver runs.
func TestPricingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws Workspace
	for trial := 0; trial < 800; trial++ {
		p := randomLP(rng)
		got, err := solveComparingScans(newSimplex(p, &ws), p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := p.SolveIn(new(Workspace))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != want.Status || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: stepwise solve %v after %d pivots, Solve %v after %d",
				trial, got.Status, got.Iterations, want.Status, want.Iterations)
		}
	}

	// A NaN reduced cost is never chosen, by either scan, ahead of or
	// behind an improving column.
	p := NewProblem()
	for j := 0; j < 4; j++ {
		p.AddVar(0, 1, 0)
	}
	p.AddConstraint(LE, 1, Term{0, 1}, Term{1, 1}, Term{2, 1}, Term{3, 1})
	s := newSimplex(p, &ws)
	for _, zrow := range [][]float64{
		{math.NaN(), -1, math.NaN(), -2, 0},
		{-3, math.NaN(), -1, math.NaN(), 0},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), 0},
	} {
		copy(s.zrow, zrow)
		if err := sameEntering(s); err != nil {
			t.Fatalf("zrow %v: %v", zrow, err)
		}
		if e := s.chooseEntering(false); e >= 0 && math.IsNaN(s.zrow[e]) {
			t.Fatalf("zrow %v: chose NaN column %d", zrow, e)
		}
	}
}
