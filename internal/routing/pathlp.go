package routing

import (
	"math"

	"lowlat/internal/graph"
	"lowlat/internal/lp"
	"lowlat/internal/reuse"
	"lowlat/internal/tm"
)

// The Figure 12 objective uses three scale constants. With the delay term
// normalized to ~1 (we divide by the all-shortest-paths baseline):
// bigM2 makes congestion avoidance dominate everything; bigM3 makes total
// overload spreading dominate delay once congestion is unavoidable; tinyM1
// is the RTT-aware tie-break ("move the aggregate whose RTT is already
// larger").
const (
	bigM2  = 1e6
	bigM3  = 100.0
	tinyM1 = 1e-4
)

// maxPaths bounds each aggregate's path list while the solver grows it
// (LatencyOpt, and MinMax with K = 0).
const maxPaths = 64

// pathSolveKind selects the LP objective.
type pathSolveKind int

const (
	kindLatency pathSolveKind = iota // Figure 12: avoid congestion, then minimize delay
	kindMinMax                       // minimize max utilization, latency as tie-break
)

// pathSolver runs the iterative path-based optimization of Figure 13: per-
// aggregate path lists grow around overloaded (or maximally utilized)
// links until the objective stops improving.
type pathSolver struct {
	kind     pathSolveKind
	headroom float64
	fixedK   int     // >0: fixed path budget per aggregate, no growth (MinMaxK10)
	polish   bool    // keep optimizing around saturated links once feasible
	bound    float64 // >0: never consider paths longer than bound x shortest
	cache    *PathCache
	// model is where every LP of this solve is assembled, drawn from
	// lpModels for the solve's growth rounds and Omax re-solves and
	// returned when the solve ends.
	model *lpModel
	// onModel, set only by tests, sees every LP assembled and its inputs.
	onModel func(prob *lp.Problem, pm *pathModel, withOmax bool)

	// stats
	lpRuns     int
	lpPivots   int
	growRounds int
}

type pathSolveResult struct {
	placement *Placement
	// maxOverload is the final max(load/capacity') across links, using
	// headroom-scaled capacities (1.0 means exactly full).
	maxOverload float64
}

// place is solve plus the statistics the schemes report.
func (s *pathSolver) place(g *graph.Graph, m *tm.Matrix) (*Placement, SolveStats, error) {
	res, err := s.solve(g, m)
	if err != nil {
		return nil, SolveStats{}, err
	}
	stats := SolveStats{
		LPRuns:      s.lpRuns,
		LPPivots:    s.lpPivots,
		GrowRounds:  s.growRounds,
		MaxOverload: res.maxOverload,
	}
	return res.placement, stats, nil
}

func (s *pathSolver) solve(g *graph.Graph, m *tm.Matrix) (*pathSolveResult, error) {
	s.model = lpModels.Get()
	defer func() {
		lpModels.Put(s.model)
		s.model = nil
	}()
	if s.cache == nil {
		s.cache = NewPathCache(g)
	}
	sps, err := shortestDelaysCached(s.cache, g, m)
	if err != nil {
		return nil, err
	}
	// Every round's placement is scored by its latency stretch; they all
	// share the one baseline these paths give.
	base := baselineOf(sps)

	capScale := 1 - s.headroom
	caps := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		caps[i] = l.Capacity * capScale
	}

	// norm makes the delay term O(1): the volume-weighted all-shortest-
	// path delay baseline.
	norm := 0.0
	minS := math.Inf(1)
	for i, a := range m.Aggregates {
		norm += float64(float64(a.Flows) * a.EffectiveWeight() * sps[i].Delay)
		if sps[i].Delay < minS {
			minS = sps[i].Delay
		}
	}
	if norm <= 0 {
		norm = 1
	}

	kCount := make([]int, m.Len())
	for i := range kCount {
		kCount[i] = 1
		if s.fixedK > 0 {
			kCount[i] = s.fixedK
		}
	}
	pathSets := make([][]graph.Path, m.Len())
	capped := make([]bool, m.Len())
	// An aggregate left on its one candidate path carries it whole in
	// every round's placement; the rounds share one backing array for
	// those allocations, and the one placement returned owns it.
	singles := make([]PathAlloc, m.Len())
	// loadPaths fetches every aggregate's kCount[i] candidates and reports
	// whether any list came back longer than the round before's.
	loadPaths := func() bool {
		lengthened := false
		for i, a := range m.Aggregates {
			ps := s.cache.Paths(a.Src, a.Dst, kCount[i])
			if s.bound > 0 {
				// The §8 extension: grow MinMax path sets subject to a
				// delay-stretch bound, so detours stay proportionate.
				maxDelay := s.bound * sps[i].Delay
				cut := len(ps)
				for cut > 1 && ps[cut-1].Delay > maxDelay {
					cut--
				}
				if cut < len(ps) {
					capped[i] = true // longer candidates are all over budget
					ps = ps[:cut]
				}
			}
			lengthened = lengthened || len(ps) > len(pathSets[i])
			pathSets[i] = ps
		}
		return lengthened
	}
	loadPaths()

	maxRounds := 60
	polishRounds := 8
	patience := 2
	noImprove := 0
	bestObj := math.Inf(1)
	var best *pathSolveResult
	polishing := false

	for round := 0; round < maxRounds; round++ {
		s.growRounds = round
		placement, err := s.solveOnce(g, m, sps, pathSets, singles, caps, norm, minS)
		if err != nil {
			return nil, err
		}
		placement.base = base
		overloads := linkOverloads(placement, caps)
		maxOv := 0.0
		for _, ov := range overloads {
			if ov > maxOv {
				maxOv = ov
			}
		}
		res := &pathSolveResult{placement: placement, maxOverload: maxOv}

		// Score this round: for the latency objective congestion
		// dominates; for MinMax the max overload itself is the goal.
		var score float64
		switch s.kind {
		case kindLatency:
			score = float64(bigM2*math.Max(maxOv, 1)) + placement.LatencyStretch()
		case kindMinMax:
			score = float64(bigM2*maxOv) + placement.LatencyStretch()
		}
		if score < bestObj-1e-9 {
			bestObj = score
			best = res
			noImprove = 0
		} else {
			noImprove++
		}

		if s.fixedK > 0 {
			return best, nil // single shot: path sets are fixed
		}
		if s.kind == kindLatency && maxOv <= 1+1e-7 && !polishing {
			if !s.polish {
				// The Figure 13 termination: no overloaded links.
				return best, nil
			}
			// Exact mode: keep polishing around *saturated* links so
			// that aggregates pinned to a single path by a full (but
			// not overloaded) link can still be traded against others
			// — this closes the gap to the true LP optimum.
			polishing = true
			noImprove = 0
			maxRounds = round + 1 + polishRounds
		}
		// While links remain overloaded, growth must continue even
		// through score plateaus (a useful alternate may only appear
		// several k's deeper): the paper iterates "until we find paths
		// with no overloaded links". Patience only cuts off refinement
		// once the traffic fits.
		if noImprove >= patience && maxOv <= 1+1e-7 {
			return best, nil
		}
		threshold := maxOv
		if polishing {
			threshold = 1 - 1e-6
		}
		// Growth can raise kCount for an aggregate whose candidate list
		// is exhausted. A round with the same path sets solves the same
		// LP to the same score, and so would every round after it: best
		// is final.
		if !s.growAround(m, pathSets, kCount, capped, overloads, threshold) || !loadPaths() {
			return best, nil // nothing left to grow
		}
	}
	return best, nil
}

// growAround extends the path list of every aggregate crossing a link at or
// above the overload threshold (Figure 13). Returns false when no list
// could grow.
func (s *pathSolver) growAround(m *tm.Matrix, pathSets [][]graph.Path,
	kCount []int, capped []bool, overloads []float64, threshold float64) bool {
	hot := make([]bool, len(overloads))
	for lid, ov := range overloads {
		hot[lid] = ov >= threshold-1e-9 && ov > 0
	}
	grew := false
	for i := range m.Aggregates {
		if kCount[i] >= maxPaths || capped[i] {
			continue
		}
		crosses := false
	scan:
		for _, p := range pathSets[i] {
			for _, lid := range p.Links {
				if hot[lid] {
					crosses = true
					break scan
				}
			}
		}
		if crosses {
			kCount[i]++
			grew = true
		}
	}
	return grew
}

// lpModel is the memory a path LP is assembled in: the problem and every
// scratch buffer of pathModel.build. A solve holds one across its growth
// rounds, which widen the LP, so build allocates only when a round
// outgrows every earlier one; between solves it waits in lpModels. The
// simplex copies the model into its tableau and Solution.X is its own, so
// nothing a solve returns points into it.
type lpModel struct {
	prob      lp.Problem
	touches   []int       // per link: the most terms its capacity row can get
	arena     []lp.Term   // every row's terms
	linkTerms [][]lp.Term // per link: its capacity row's terms, in arena
	ols       []int       // the o_l variables, for the caller
}

var lpModels reuse.List[lpModel]

// pathModel is what one growth round's LP is assembled from: the current
// path sets and the per-link loads they fix.
type pathModel struct {
	kind     pathSolveKind
	m        *tm.Matrix
	sps      []graph.Path   // shortest path per aggregate
	pathSets [][]graph.Path // candidate paths per aggregate, delay-sorted
	caps     []float64      // headroom-scaled capacity per link
	norm     float64        // delay normalization
	minS     float64        // smallest shortest-path delay (tie-break)
	// fixed is the load each link carries before any fraction moves:
	// single-path aggregates plus every multi-path aggregate's shortest
	// path at full fraction (the substitution baseline).
	fixed []float64
	multi []int // aggregates with more than one candidate path
	// varBase[a]+p is the LP variable of multi-path aggregate a's path
	// p >= 1; build fills it.
	varBase []int
	buf     *lpModel // where build assembles the LP
}

// solveOnce formulates and solves the Figure 12 LP over the current path
// sets. Aggregates with a single candidate path contribute fixed load (and
// their allocation, the same in every round, goes to singles[i]); only
// multi-path aggregates get variables, which is what keeps the LP small
// (the paper's central scalability observation in §5).
//
// The model substitutes the shortest path's fraction out (x_p0 = 1 - sum
// of the moved fractions), so no equality rows are needed and, whenever no
// link's fixed load already exceeds capacity, every row is a <= with
// nonnegative rhs: the all-shortest-paths point is a slack-only feasible
// basis and the simplex skips phase 1 entirely.
func (s *pathSolver) solveOnce(g *graph.Graph, m *tm.Matrix, sps []graph.Path,
	pathSets [][]graph.Path, singles []PathAlloc, caps []float64, norm, minS float64) (*Placement, error) {
	placement := NewPlacement(g, m)
	pm := &pathModel{kind: s.kind, m: m, sps: sps, pathSets: pathSets, caps: caps, norm: norm, minS: minS,
		fixed: make([]float64, g.NumLinks()), varBase: make([]int, len(pathSets)), buf: s.model}
	for i, ps := range pathSets {
		if len(ps) <= 1 {
			singles[i] = PathAlloc{Path: ps[0], Fraction: 1}
			placement.Allocs[i] = singles[i : i+1 : i+1]
		} else {
			pm.multi = append(pm.multi, i)
		}
		for _, lid := range ps[0].Links {
			pm.fixed[lid] += m.Aggregates[i].Volume
		}
	}
	if len(pm.multi) == 0 {
		return placement, nil
	}

	solveModel := func(withOmax bool) (*lp.Solution, []int, error) {
		prob, ols := pm.build(withOmax)
		if s.onModel != nil {
			s.onModel(prob, pm, withOmax)
		}
		sol, err := prob.Solve()
		if err != nil {
			return nil, nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, nil, &solveStatusError{status: sol.Status.String()}
		}
		s.lpRuns++
		s.lpPivots += sol.Iterations
		return sol, ols, nil
	}

	// First pass without the Omax machinery: when the traffic fits, all
	// o_l are zero and Omax would be too, so the optimum is identical at
	// half the rows. Only when overload remains do we re-solve with the
	// full Figure 12 objective (minimize the maximum overload first).
	sol, ols, err := solveModel(false)
	if err != nil {
		return nil, err
	}
	if s.kind == kindLatency {
		for _, ol := range ols {
			if sol.X[ol] > 1e-9 {
				sol, _, err = solveModel(true)
				if err != nil {
					return nil, err
				}
				break
			}
		}
	}

	for _, i := range pm.multi {
		var allocs []PathAlloc
		moved := 0.0
		for pi := 1; pi < len(pathSets[i]); pi++ {
			f := sol.X[pm.varBase[i]+pi]
			if f > fracEps {
				allocs = append(allocs, PathAlloc{Path: pathSets[i][pi], Fraction: f})
				moved += f
			}
		}
		if rem := 1 - moved; rem > fracEps {
			allocs = append(allocs, PathAlloc{Path: pathSets[i][0], Fraction: rem})
		} else {
			// Renormalize tiny overshoot from LP tolerances.
			for j := range allocs {
				allocs[j].Fraction /= moved
			}
		}
		sortAllocsByDelay(allocs)
		placement.Allocs[i] = allocs
	}
	return placement, nil
}

// build assembles the whole LP in pm.buf: y_ap variables (p >= 1, the
// fraction moved OFF the shortest path onto path p, with the Figure 12
// delay cost n_a * (d_p - d_p0) * (1 + M1 * minS/S_a)), per-aggregate
// budget rows, and capacity rows in utilization units. O_l is modeled as
// 1 + o_l with o_l >= 0; only links whose fixed load already exceeds
// capacity yield a negative rhs (and hence a phase-1 artificial). It
// returns the o_l variables beside the problem; both are pm.buf's, good
// until the next build.
//
// No maps and no sorting: variables are numbered aggregate by aggregate,
// path by path, so a link's terms, appended as the variables are created,
// are sorted by variable by construction. A link on both p and p0 gets
// +vol then -vol, exactly zero, and drops out — it is the last term
// appended, so it is popped — but the link stays active: its row is
// emitted even when every coefficient cancels.
func (pm *pathModel) build(withOmax bool) (*lp.Problem, []int) {
	b := pm.buf
	prob := &b.prob
	prob.Reset()
	// One arena for every row's terms: each link's sized to the most the
	// link can receive plus its overload variable (a link that receives
	// none is inactive and gets no row), each budget row's to its
	// aggregate's paths, and two per Omax row.
	b.touches = reuse.Grow(b.touches, len(pm.caps))
	clear(b.touches)
	touches := b.touches
	size := len(touches)
	if withOmax {
		size += 2 * len(touches)
	}
	for _, i := range pm.multi {
		ps := pm.pathSets[i]
		size += len(ps) - 1
		for _, p := range ps[1:] {
			for _, lid := range p.Links {
				touches[lid]++
			}
			for _, lid := range ps[0].Links {
				touches[lid]++
			}
			size += len(p.Links) + len(ps[0].Links)
		}
	}
	b.arena = reuse.Grow(b.arena, size)
	arena := b.arena
	b.linkTerms = reuse.Grow(b.linkTerms, len(touches))
	linkTerms := b.linkTerms
	for lid, n := range touches {
		linkTerms[lid], arena = arena[:0:n+1], arena[n+1:]
	}
	for _, i := range pm.multi {
		a := pm.m.Aggregates[i]
		tieBreak := 1 + tinyM1*pm.minS/pm.sps[i].Delay
		ps := pm.pathSets[i]
		pm.varBase[i] = prob.NumVars() - 1
		rowTerms := arena[: 0 : len(ps)-1]
		arena = arena[len(ps)-1:]
		for _, p := range ps[1:] {
			coeff := float64(a.Flows) * a.EffectiveWeight() * (p.Delay - ps[0].Delay) * tieBreak / pm.norm
			if coeff < 0 {
				coeff = 0 // paths are delay-sorted; guard rounding
			}
			v := prob.AddVar(0, 1, coeff)
			rowTerms = append(rowTerms, lp.Term{Var: v, Coeff: 1})
			if a.Volume == 0 {
				continue // touches its links, so their rows stay, but adds no term
			}
			for _, lid := range p.Links {
				linkTerms[lid] = append(linkTerms[lid], lp.Term{Var: v, Coeff: a.Volume / pm.caps[lid]})
			}
			for _, lid := range ps[0].Links {
				if t := linkTerms[lid]; len(t) > 0 && t[len(t)-1].Var == v {
					linkTerms[lid] = t[:len(t)-1]
				} else {
					linkTerms[lid] = append(t, lp.Term{Var: v, Coeff: -a.Volume / pm.caps[lid]})
				}
			}
		}
		// Moved fractions cannot exceed the whole aggregate.
		prob.AddConstraint(lp.LE, 1, rowTerms...)
	}

	b.ols = b.ols[:0]
	switch pm.kind {
	case kindLatency:
		oMax := -1
		if withOmax {
			oMax = prob.AddVar(0, math.Inf(1), bigM2)
		}
		for lid, terms := range linkTerms {
			if touches[lid] == 0 {
				continue
			}
			ol := prob.AddVar(0, math.Inf(1), bigM3)
			b.ols = append(b.ols, ol)
			prob.AddConstraint(lp.LE, 1-pm.fixed[lid]/pm.caps[lid], append(terms, lp.Term{Var: ol, Coeff: -1})...)
			if withOmax {
				row := arena[:2:2]
				arena = arena[2:]
				row[0], row[1] = lp.Term{Var: ol, Coeff: 1}, lp.Term{Var: oMax, Coeff: -1}
				prob.AddConstraint(lp.LE, 0, row...)
			}
		}
	case kindMinMax:
		u := prob.AddVar(0, math.Inf(1), bigM2)
		for lid, terms := range linkTerms {
			if touches[lid] > 0 {
				prob.AddConstraint(lp.LE, -pm.fixed[lid]/pm.caps[lid], append(terms, lp.Term{Var: u, Coeff: -1})...)
			}
		}
	}
	return prob, b.ols
}

type solveStatusError struct{ status string }

func (e *solveStatusError) Error() string {
	return "routing: path LP returned status " + e.status
}

// linkOverloads returns per-link load / scaled-capacity ratios.
func linkOverloads(p *Placement, caps []float64) []float64 {
	loads := p.LinkLoads()
	out := make([]float64, len(loads))
	for i, ld := range loads {
		out[i] = ld / caps[i]
	}
	return out
}
