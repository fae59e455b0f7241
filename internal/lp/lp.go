// Package lp implements a dense two-phase primal simplex solver with native
// support for bounded variables (0-shifted lower bounds and upper-bound
// flipping). It is the optimization engine behind every LP in the
// reproduction: the Figure 12 path-based latency optimization, the MinMax
// formulations, the link-based multi-commodity baseline, and the
// traffic-locality transportation problem.
//
// The solver minimizes c·x subject to linear constraints and per-variable
// bounds lo <= x <= hi. Lower bounds must be finite; upper bounds may be
// +Inf. Maximization is expressed by negating the objective.
//
// The tableau is dense, m rows by n columns, but an iteration touches only
// what its pivot changes. The ratio test records the rows where the
// entering column is nonzero, and the bound flip or pivot that follows
// walks that list and no other row. The pivot row is read once, into a
// compact list of its nonzero columns and their values, which the
// elimination of the other rows and of the reduced costs reads. Once
// phase 1 has retired the artificial columns the live width shrinks to
// the structural and slack columns: phase 2 neither prices nor updates
// the rest, which hold stale values. Every arithmetic operation on a live
// cell is the one a dense pass would do, so the pivot sequence and every
// bit of a Solution are the same; simplex_ref_test.go holds the kernel to
// a dense reference kernel after every iteration.
//
// Every buffer a solve needs (the m x n tableau above all, then the
// bounds, basis and reduced costs) lives in a Workspace, reused from one
// solve to the next and grown, with some room to spare, only when a
// problem outgrows it. Problem.Solve draws its Workspace from a pool this
// package owns (a reuse.List, which every goroutine reaches) and returns
// it when the solve ends, so the growth rounds, calibration solves and
// failure epochs of a process share a handful of them rather than
// allocate and zero a tableau each; the pool holds one per concurrent
// solve at most and lets go of one left idle through two garbage
// collections. A caller that must keep a huge LP out of the pool (the
// link-based baseline) passes a Workspace of its own to SolveIn. A
// Workspace is not safe for concurrent use, and its contents are
// undefined between solves: nothing a Solution returns points into it,
// so a Solution kept from one solve is unchanged by every later one.
package lp

import (
	"errors"
	"fmt"
	"math"

	"lowlat/internal/reuse"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Term is one coefficient of a constraint: Coeff * x[Var].
type Term struct {
	Var   int
	Coeff float64
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	obj  []float64
	lo   []float64
	hi   []float64
	rows []conRow
}

type conRow struct {
	terms []Term
	op    Op
	rhs   float64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// Reset empties p, keeping the capacity of its buffers, so that a caller
// assembling a run of similar problems allocates them once. p lets go of
// the term slices its constraints retained.
func (p *Problem) Reset() {
	clear(p.rows)
	p.obj, p.lo, p.hi, p.rows = p.obj[:0], p.lo[:0], p.hi[:0], p.rows[:0]
}

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// obj, returning its index. lo must be finite; hi may be +Inf.
func (p *Problem) AddVar(lo, hi, obj float64) int {
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, obj)
	return len(p.obj) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddConstraint adds the constraint Σ terms (op) rhs. Terms referencing the
// same variable multiple times are summed. A slice passed as terms... is
// retained, not copied: the caller must not modify it afterwards.
func (p *Problem) AddConstraint(op Op, rhs float64, terms ...Term) {
	p.rows = append(p.rows, conRow{terms: terms, op: op, rhs: rhs})
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Iterations is the number of simplex pivots performed, for the
	// runtime accounting in the Figure 15 experiment.
	Iterations int
}

// Solve runs the two-phase simplex and returns the solution. An error is
// returned only for malformed problems (invalid bounds, bad variable
// indices, a NaN or infinite objective or constraint coefficient or rhs)
// or if the iteration safety limit is hit; infeasibility and
// unboundedness are reported via Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	ws := workspaces.Get()
	sol, err := p.SolveIn(ws)
	workspaces.Put(ws)
	return sol, err
}

// workspaces is the pool Solve draws its Workspace from.
var workspaces reuse.List[Workspace]

// SolveIn is Solve with the solve's buffers in ws, reusing whatever ws
// already holds that is large enough.
func (p *Problem) SolveIn(ws *Workspace) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if testHookSolve != nil {
		testHookSolve(p)
	}
	return newSimplex(p, ws).solve(p)
}

// testHookSolve, set only by this package's tests, sees every valid problem
// about to be solved: the differential test's tap on the path solver's LPs.
var testHookSolve func(*Problem)

func (p *Problem) validate() error {
	for j, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: variable %d has non-finite objective coefficient %v", j, c)
		}
		if math.IsInf(p.lo[j], 0) || math.IsNaN(p.lo[j]) {
			return fmt.Errorf("lp: variable %d has non-finite lower bound %v", j, p.lo[j])
		}
		if math.IsNaN(p.hi[j]) || p.hi[j] < p.lo[j] {
			return fmt.Errorf("lp: variable %d has invalid bounds [%v,%v]", j, p.lo[j], p.hi[j])
		}
	}
	for i, r := range p.rows {
		for _, t := range r.terms {
			if t.Var < 0 || t.Var >= len(p.obj) {
				return fmt.Errorf("lp: row %d references unknown variable %d", i, t.Var)
			}
			if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
				return fmt.Errorf("lp: row %d has non-finite coefficient", i)
			}
		}
		if math.IsNaN(r.rhs) || math.IsInf(r.rhs, 0) {
			return fmt.Errorf("lp: row %d has non-finite rhs", i)
		}
	}
	return nil
}

// ErrIterationLimit is returned when the simplex exceeds its safety bound;
// it indicates a bug or a pathologically scaled model rather than a normal
// outcome.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")
