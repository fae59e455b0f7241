package lp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestTrivialUnconstrained(t *testing.T) {
	p := NewProblem()
	p.AddVar(0, 10, 1) // minimize x, x in [0,10]
	sol := mustSolve(t, p)
	if sol.Status != Optimal || sol.X[0] != 0 {
		t.Fatalf("sol = %+v", sol)
	}
	p2 := NewProblem()
	p2.AddVar(0, 10, -1) // minimize -x -> x = 10
	sol2 := mustSolve(t, p2)
	if sol2.Status != Optimal || math.Abs(sol2.X[0]-10) > 1e-9 {
		t.Fatalf("sol = %+v", sol2)
	}
	if math.Abs(sol2.Objective+10) > 1e-9 {
		t.Fatalf("objective = %v, want -10", sol2.Objective)
	}
}

func TestClassicProduction(t *testing.T) {
	// Maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Textbook optimum: x=2, y=6, objective 36.
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), -3)
	y := p.AddVar(0, math.Inf(1), -5)
	p.AddConstraint(LE, 4, Term{x, 1})
	p.AddConstraint(LE, 12, Term{y, 2})
	p.AddConstraint(LE, 18, Term{x, 3}, Term{y, 2})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.X[x]-2) > 1e-9 || math.Abs(sol.X[y]-6) > 1e-9 {
		t.Fatalf("x,y = %v,%v want 2,6", sol.X[x], sol.X[y])
	}
	if math.Abs(sol.Objective+36) > 1e-9 {
		t.Fatalf("objective = %v, want -36", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// minimize x + 2y s.t. x + y == 5, x,y >= 0 -> x=5, y=0.
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), 1)
	y := p.AddVar(0, math.Inf(1), 2)
	p.AddConstraint(EQ, 5, Term{x, 1}, Term{y, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[x]-5) > 1e-9 || sol.X[y] > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestGEConstraint(t *testing.T) {
	// minimize 2x + 3y s.t. x + y >= 10, x <= 4 -> x=4, y=6, obj 26.
	p := NewProblem()
	x := p.AddVar(0, 4, 2)
	y := p.AddVar(0, math.Inf(1), 3)
	p.AddConstraint(GE, 10, Term{x, 1}, Term{y, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-26) > 1e-9 {
		t.Fatalf("objective = %v, want 26 (x=%v y=%v)", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// The Figure 12 LP uses O_l >= 1. minimize o s.t. o >= 1, 3x <= 6o,
	// x == 3 -> o = 1.5.
	p := NewProblem()
	o := p.AddVar(1, math.Inf(1), 1)
	x := p.AddVar(0, math.Inf(1), 0)
	p.AddConstraint(EQ, 3, Term{x, 1})
	p.AddConstraint(LE, 0, Term{x, 3}, Term{o, -6})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[o]-1.5) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestUpperBoundedVariables(t *testing.T) {
	// maximize x + y with x <= 3, y <= 2 via bounds, x + y <= 4.
	p := NewProblem()
	x := p.AddVar(0, 3, -1)
	y := p.AddVar(0, 2, -1)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective+4) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
	if sol.X[x]+sol.X[y] > 4+1e-9 {
		t.Fatalf("constraint violated: %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1, 1)
	p.AddConstraint(GE, 5, Term{x, 1})
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}

	p2 := NewProblem()
	a := p2.AddVar(0, math.Inf(1), 0)
	b := p2.AddVar(0, math.Inf(1), 0)
	p2.AddConstraint(EQ, 1, Term{a, 1}, Term{b, 1})
	p2.AddConstraint(EQ, 3, Term{a, 1}, Term{b, 1})
	sol2 := mustSolve(t, p2)
	if sol2.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol2.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), -1) // maximize x, no constraints
	_ = x
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(2, 2, 1) // fixed at 2
	y := p.AddVar(0, math.Inf(1), 1)
	p.AddConstraint(GE, 5, Term{x, 1}, Term{y, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[x]-2) > 1e-9 || math.Abs(sol.X[y]-3) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// minimize x with x in [-5, 5] and x >= -3.
	p := NewProblem()
	x := p.AddVar(-5, 5, 1)
	p.AddConstraint(GE, -3, Term{x, 1})
	sol := mustSolve(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[x]+3) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem()
	p.AddVar(math.Inf(-1), 1, 0)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for infinite lower bound")
	}

	p2 := NewProblem()
	p2.AddVar(3, 1, 0)
	if _, err := p2.Solve(); err == nil {
		t.Fatal("expected error for inverted bounds")
	}

	p3 := NewProblem()
	p3.AddVar(0, 1, 0)
	p3.AddConstraint(LE, 1, Term{5, 1})
	if _, err := p3.Solve(); err == nil {
		t.Fatal("expected error for bad variable index")
	}

	p4 := NewProblem()
	v := p4.AddVar(0, 1, 0)
	p4.AddConstraint(LE, math.NaN(), Term{v, 1})
	if _, err := p4.Solve(); err == nil {
		t.Fatal("expected error for NaN rhs")
	}

	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p5 := NewProblem()
		v := p5.AddVar(0, 1, 1)
		p5.AddVar(0, 1, c)
		p5.AddConstraint(LE, 1, Term{v, 1})
		if _, err := p5.Solve(); err == nil || !strings.Contains(err.Error(), "objective") {
			t.Fatalf("objective coefficient %v: err = %v, want a non-finite objective error", c, err)
		}
	}
}

func TestDuplicateTermsAreSummed(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1), -1)
	p.AddConstraint(LE, 6, Term{x, 1}, Term{x, 2}) // 3x <= 6
	sol := mustSolve(t, p)
	if math.Abs(sol.X[x]-2) > 1e-9 {
		t.Fatalf("x = %v, want 2", sol.X[x])
	}
}

func TestObjectiveHelpers(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, -3) // maximize 3x -> x = 5
	sol := mustSolve(t, p)
	if math.Abs(sol.X[x]-5) > 1e-9 || math.Abs(sol.Objective+15) > 1e-9 {
		t.Fatalf("sol = %+v", sol)
	}
	if p.NumVars() != 1 || p.NumRows() != 0 {
		t.Fatalf("counts wrong: %d vars %d rows", p.NumVars(), p.NumRows())
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" || Op(9).String() != "?" {
		t.Fatal("Op.String wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(9).String() != "unknown" {
		t.Fatal("Status.String wrong")
	}
}

// --- brute-force cross-validation ---------------------------------------

// bruteForce solves a fully box-bounded LP by enumerating candidate
// vertices: every subset of n active constraints drawn from the rows
// (as equalities) and the variable bounds. Returns (value, feasible).
func bruteForce(p *Problem) (float64, bool) {
	n := len(p.obj)
	var planes []hyperplane
	for _, r := range p.rows {
		c := make([]float64, n)
		for _, t := range r.terms {
			c[t.Var] += t.Coeff
		}
		planes = append(planes, hyperplane{c, r.rhs})
	}
	for j := 0; j < n; j++ {
		lo := make([]float64, n)
		lo[j] = 1
		planes = append(planes, hyperplane{lo, p.lo[j]})
		hi := make([]float64, n)
		hi[j] = 1
		planes = append(planes, hyperplane{hi, p.hi[j]})
	}

	feasible := func(x []float64) bool {
		for j := 0; j < n; j++ {
			if x[j] < p.lo[j]-1e-7 || x[j] > p.hi[j]+1e-7 {
				return false
			}
		}
		for _, r := range p.rows {
			lhs := 0.0
			for _, t := range r.terms {
				lhs += t.Coeff * x[t.Var]
			}
			switch r.op {
			case LE:
				if lhs > r.rhs+1e-7 {
					return false
				}
			case GE:
				if lhs < r.rhs-1e-7 {
					return false
				}
			case EQ:
				if math.Abs(lhs-r.rhs) > 1e-7 {
					return false
				}
			}
		}
		return true
	}

	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(planes, idx, n)
			if ok && feasible(x) {
				found = true
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += p.obj[j] * x[j]
				}
				if obj < best {
					best = obj
				}
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// solveSquare solves the n x n system formed by the selected planes via
// Gaussian elimination with partial pivoting.
type hyperplane struct {
	coef []float64
	rhs  float64
}

func solveSquare(planes []hyperplane, idx []int, n int) ([]float64, bool) {
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n+1)
		copy(a[i], planes[idx[i]].coef)
		a[i][n] = planes[idx[i]].rhs
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n] / a[i][i]
	}
	return x, true
}

func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(3)
		p := NewProblem()
		for j := 0; j < n; j++ {
			u := float64(1 + rng.Intn(5))
			p.AddVar(0, u, float64(rng.Intn(7)-3))
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if c := rng.Intn(7) - 3; c != 0 {
					terms = append(terms, Term{j, float64(c)})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{0, 1})
			}
			op := Op(rng.Intn(3))
			rhs := float64(rng.Intn(11) - 3)
			p.AddConstraint(op, rhs, terms...)
		}

		want, feasible := bruteForce(p)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: simplex says %v (obj %v), brute force says infeasible",
					trial, sol.Status, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: simplex says %v, brute force found optimum %v",
				trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, sol.Objective, want)
		}
	}
}

// TestRandomFeasibleSolutionsAreValid stresses larger LPs than brute force
// can check, verifying primal feasibility of the returned point.
func TestRandomFeasibleSolutionsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		m := 3 + rng.Intn(15)
		p := NewProblem()
		for j := 0; j < n; j++ {
			hi := math.Inf(1)
			if rng.Intn(2) == 0 {
				hi = float64(1 + rng.Intn(10))
			}
			p.AddVar(0, hi, rng.NormFloat64())
		}
		// Generate rows satisfied by an interior point so that the
		// problem is always feasible; bound the objective with a
		// simplex-wide budget row.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = rng.Float64()
		}
		for i := 0; i < m; i++ {
			var terms []Term
			lhs := 0.0
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					c := float64(rng.Intn(9) - 4)
					if c != 0 {
						terms = append(terms, Term{j, c})
						lhs += c * x0[j]
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(LE, lhs+rng.Float64()*3, terms...)
		}
		budget := make([]Term, n)
		for j := 0; j < n; j++ {
			budget[j] = Term{j, 1}
		}
		p.AddConstraint(LE, float64(n), budget...)

		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for feasible bounded problem", trial, sol.Status)
		}
		for i, r := range p.rows {
			lhs := 0.0
			for _, tm := range r.terms {
				lhs += tm.Coeff * sol.X[tm.Var]
			}
			if r.op == LE && lhs > r.rhs+1e-6 {
				t.Fatalf("trial %d: row %d violated: %v > %v", trial, i, lhs, r.rhs)
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-9 || sol.X[j] > p.hi[j]+1e-6 {
				t.Fatalf("trial %d: variable %d out of bounds: %v", trial, j, sol.X[j])
			}
		}
	}
}

func TestDegenerateCycling(t *testing.T) {
	// Beale's classic cycling example; Bland fallback must terminate.
	p := NewProblem()
	x1 := p.AddVar(0, math.Inf(1), -0.75)
	x2 := p.AddVar(0, math.Inf(1), 150)
	x3 := p.AddVar(0, math.Inf(1), -0.02)
	x4 := p.AddVar(0, math.Inf(1), 6)
	p.AddConstraint(LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
	p.AddConstraint(LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
	p.AddConstraint(LE, 1, Term{x3, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("cycling not resolved: %v", err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+0.05) > 1e-9 {
		t.Fatalf("sol = %+v, want objective -1/20", sol)
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, m := 120, 60
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar(0, 10, rng.NormFloat64())
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				terms = append(terms, Term{j, rng.NormFloat64()})
			}
		}
		p.AddConstraint(LE, 5+rng.Float64()*10, terms...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
