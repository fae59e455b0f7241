package analysis

// Suite returns the repo's six invariant analyzers in stable name
// order — the set TestSuiteSelfGate (`make analyze`) runs.
func Suite() []*Analyzer {
	return []*Analyzer{
		Atomicguard,
		Ctxflow,
		Detrange,
		Goexit,
		Locked,
		Sentinelerr,
	}
}
