package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
		m: m, n: n, w: n,
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

// The iteration kernel the production one replaced, kept as the
// reference: every pass spans all n columns and all m rows, flipBasic is
// its own pass over the leaving row, and pivot gathers the elimination
// from the pivot row. The production kernel walks only the rows its ratio
// test found nonzero, reads the pivot row once and drops the artificial
// columns after phase 1; it must reach the same state, bit for bit on
// every live cell, after every iteration.

// refStep is one iteration of the reference kernel's iterate.
func refStep(s *simplex, bland bool) (Status, bool) {
	e := refChooseEntering(s, bland)
	if e < 0 {
		return Optimal, true
	}
	limitRow, limitKind := refRatioTest(s, e)
	switch limitKind {
	case limitNone:
		return Unbounded, true
	case limitSelf:
		refFlipColumn(s, e)
	case limitLower:
		refPivot(s, limitRow, e)
	case limitUpper:
		refFlipBasic(s, limitRow)
		refPivot(s, limitRow, e)
	}
	return Optimal, false
}

func refRatioTest(s *simplex, e int) (int, limitKind) {
	limit := s.u[e]
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

func refFlipColumn(s *simplex, j int) {
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
	s.pivots++
}

func refFlipBasic(s *simplex, r int) {
	col := s.basis[r]
	s.bhat[r] = s.u[col] - s.bhat[r]
	for j := 0; j < s.n; j++ {
		if j != col {
			s.tab[r][j] = -s.tab[r][j]
		}
	}
	s.flipped[col] = !s.flipped[col]
}

func refPivot(s *simplex, r, e int) {
	s.pivots++
	rowR := s.tab[r]
	inv := 1 / rowR[e]
	var nz []int
	for j := 0; j < s.n; j++ {
		if v := rowR[j]; v != 0 {
			rowR[j] = v * inv
			nz = append(nz, j)
		}
	}
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

func refRetireArtificials(s *simplex) {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		for j := 0; j < s.artStart; j++ {
			if s.rowOf[j] >= 0 || s.banned[j] {
				continue
			}
			if math.Abs(s.tab[i][j]) > 1e-7 {
				refPivot(s, i, j)
				break
			}
		}
	}
	for j := s.artStart; j < s.n; j++ {
		s.banned[j] = true
		s.u[j] = 0
	}
}

// sameState compares the production kernel's state with the reference's
// bit for bit: bhat, the reduced costs on the live columns and the
// bookkeeping on all columns, then the tableau over the live columns in
// the given rows, or in every row when rows is nil.
func sameState(got, ref *simplex, rows []int32) error {
	w := got.w
	switch {
	case got.pivots != ref.pivots:
		return fmt.Errorf("%d pivots, the reference %d", got.pivots, ref.pivots)
	case !sameBits(got.bhat, ref.bhat):
		return fmt.Errorf("bhat differs")
	case !sameBits(got.zrow[:w], ref.zrow[:w]):
		return fmt.Errorf("zrow differs")
	case !sameBits(got.u, ref.u):
		return fmt.Errorf("upper bounds differ")
	case !slices.Equal(got.basis, ref.basis) || !slices.Equal(got.rowOf, ref.rowOf):
		return fmt.Errorf("basis differs")
	case !slices.Equal(got.flipped, ref.flipped) || !slices.Equal(got.banned, ref.banned):
		return fmt.Errorf("flipped or banned columns differ")
	}
	if rows == nil {
		for i := range ref.tab {
			rows = append(rows, int32(i))
		}
	}
	for _, i := range rows {
		if !sameBits(got.tab[i][:w], ref.tab[i][:w]) {
			return fmt.Errorf("tableau row %d differs", i)
		}
	}
	return nil
}

// solveInStep is solve with both kernels in lockstep: got runs the
// production kernel and ref the reference one, and both pricing scans are
// asked for their column before every iteration. After every iteration
// sameState compares the two states, the tableau in the rows either kernel
// may have written: those where the reference's entering column was
// nonzero and those the production kernel walked. The whole tableau is
// compared at every phase change and at the end, so a write outside those
// rows shows there. It returns the first difference, or got's outcome,
// which must then equal solve's.
func solveInStep(got, ref *simplex, p *Problem) (*Solution, error) {
	maxIter := 2000 + 200*(got.m+got.n)
	blandAfter := 500 + 20*(got.m+got.n)
	var diverged error
	check := func(rows []int32, format string, args ...any) bool {
		if err := sameState(got, ref, rows); err != nil {
			diverged = fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
		}
		return diverged == nil
	}
	var written []int32
	iterate := func(phase int) (Status, error) {
		for iter := 0; iter < maxIter; iter++ {
			bland := iter > blandAfter
			if err := sameEntering(got); err != nil {
				diverged = fmt.Errorf("phase %d iteration %d: %w", phase, iter, err)
				return Optimal, diverged
			}
			written = written[:0]
			if e := refChooseEntering(ref, bland); e >= 0 {
				for i, row := range ref.tab {
					if row[e] != 0 {
						written = append(written, int32(i))
					}
				}
			}
			status, done := got.step(bland)
			written = append(written, got.rows...)
			rstatus, rdone := refStep(ref, bland)
			if !check(written, "phase %d after iteration %d", phase, iter) {
				return Optimal, diverged
			}
			if status != rstatus || done != rdone {
				diverged = fmt.Errorf("phase %d iteration %d: ended %v/%v, the reference %v/%v",
					phase, iter, status, done, rstatus, rdone)
				return Optimal, diverged
			}
			if done {
				if !check(nil, "phase %d end", phase) {
					return Optimal, diverged
				}
				return status, nil
			}
		}
		return Optimal, ErrIterationLimit
	}
	if got.artStart < got.n {
		for j := got.artStart; j < got.n; j++ {
			got.cost[j], ref.cost[j] = 1, 1
		}
		got.resetZrow()
		ref.resetZrow()
		if !check(nil, "phase 1 start") {
			return nil, diverged
		}
		status, err := iterate(1)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			return nil, ErrIterationLimit
		}
		if got.phase1Objective() > epsFeas {
			return &Solution{Status: Infeasible, Iterations: got.pivots}, nil
		}
		got.retireArtificials()
		refRetireArtificials(ref)
		if !check(nil, "artificials retired") {
			return nil, diverged
		}
	}
	for _, s := range []*simplex{got, ref} {
		clear(s.cost[copy(s.cost, p.obj):])
		s.resetZrow()
	}
	if !check(nil, "phase 2 start") {
		return nil, diverged
	}
	status, err := iterate(2)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Iterations: got.pivots}, nil
	}
	x := got.extract(p)
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	if !sameBits(x, ref.extract(p)) {
		return nil, fmt.Errorf("extracted solutions differ")
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iterations: got.pivots}, nil
}

// DiffAgainstRef builds p's tableau with the reference constructor and
// with newSimplex in ws and compares the two initial states, then solves
// them in lockstep, the reference kernel on one and the production
// kernel on the other, comparing every iteration (solveInStep). The
// lockstep outcome must equal solve's. It returns the first difference.
func DiffAgainstRef(p *Problem, ws *Workspace) error {
	ref, got := refNewSimplex(p), newSimplex(p, ws)
	if ref.m != got.m || ref.n != got.n || ref.nStruct != got.nStruct || ref.artStart != got.artStart {
		return fmt.Errorf("shape differs: ref %dx%d (%d structural, artificials from %d), got %dx%d (%d, %d)",
			ref.m, ref.n, ref.nStruct, ref.artStart, got.m, got.n, got.nStruct, got.artStart)
	}
	if err := sameState(got, ref, nil); err != nil {
		return fmt.Errorf("initial state: %w", err)
	}
	stepped, serr := solveInStep(got, ref, p)
	if serr != nil && serr != ErrIterationLimit {
		return serr
	}
	solved, err := newSimplex(p, ws).solve(p)
	if err := sameSolution(stepped, serr, solved, err); err != nil {
		return fmt.Errorf("lockstep solve against solve: %w", err)
	}
	return nil
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

// TestTableauMatchesReference compares constructor and kernel against the
// reference, iteration by iteration, over seeded random LPs and then the
// growth-round stand-ins of growingLP, all built in one workspace so that
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
	for i := 0; i < 8; i++ {
		p := growingLP(int64(100+i), 10+6*i, 6+4*i)
		if err := DiffAgainstRef(p, &ws); err != nil {
			t.Fatalf("growingLP %d: %v", i, err)
		}
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

// TestPricingMatchesReference asks both pricing scans, with and without
// Bland's rule, for their column on reduced costs the seeded LPs rarely
// reach: NaNs, which neither may choose, and ties between the even and the
// odd lane of the two-lane scan, which must go to the lower index as the
// one-lane reference's do. (The step fence of TestTableauMatchesReference
// compares the two scans before every iteration of the seeded and tapped
// LPs.)
func TestPricingMatchesReference(t *testing.T) {
	var ws Workspace
	for _, zrows := range [][][]float64{
		{ // 4 variables and a slack: an odd width, so the even lane has a tail
			{math.NaN(), -1, math.NaN(), -2, 0},
			{-3, math.NaN(), -1, math.NaN(), 0},
			{math.NaN(), math.NaN(), math.NaN(), math.NaN(), 0},
			{-2, -2, 0, 0, 0},
			{0, -2, -2, 0, 0},
			{0, -1, 0, -1, -1},
			{0, 0, 0, 0, -5},
		},
		{ // 5 variables and a slack: an even width
			{0, 0, -1, -3, 0, -3},
			{-1, -3, 0, 0, -3, 0},
			{0, 0, 0, 0, 0, -1e-10},
			{math.NaN(), -4, -4, math.NaN(), -4, -4},
		},
	} {
		p := NewProblem()
		var terms []Term
		for j := 0; j < len(zrows[0])-1; j++ {
			terms = append(terms, Term{p.AddVar(0, 1, 0), 1})
		}
		p.AddConstraint(LE, 1, terms...)
		s := newSimplex(p, &ws)
		for _, zrow := range zrows {
			copy(s.zrow, zrow)
			if err := sameEntering(s); err != nil {
				t.Fatalf("zrow %v: %v", zrow, err)
			}
			if e := s.chooseEntering(false); e >= 0 && math.IsNaN(s.zrow[e]) {
				t.Fatalf("zrow %v: chose NaN column %d", zrow, e)
			}
		}
	}
}
