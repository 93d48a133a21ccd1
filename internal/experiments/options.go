package experiments

import (
	"sync/atomic"

	"pfcache/internal/lp"
)

// The experiments pin the simplex engines their LPs are solved with.  The
// committed BENCH_*.json trajectory files record schedule values produced by
// Dantzig pricing over the eta-file basis, and on the degenerate alternative
// optima of the synchronized-schedule LPs both the entering-column rule and
// the refactorization's row reassignment decide which optimal vertex the
// solve lands on — so the suite keeps both pinned to the historical engines
// by default, keeping the extracted schedules byte-identical to the
// trajectory.  pcbench's -pricing/-basis flags override both for
// comparisons; the library defaults (steepest-edge, LU) serve every
// non-reproduction caller.
var (
	solverMethod  atomic.Int64
	solverPricing atomic.Int64 // 0 = suite default; otherwise 1+lp.Pricing
	solverBasis   atomic.Int64 // 0 = suite default; otherwise 1+lp.BasisMethod
)

// SetSolverMethod selects the simplex implementation the experiments solve
// their LPs with; the default is lp.MethodRevised.  Exposed to pcbench as the
// -solver flag so perf comparisons between implementations run the identical
// experiment code.
func SetSolverMethod(m lp.Method) { solverMethod.Store(int64(m)) }

// SolverMethod returns the configured simplex implementation.
func SolverMethod() lp.Method { return lp.Method(solverMethod.Load()) }

// SetPricing overrides the pinned entering-column rule (pcbench -pricing).
func SetPricing(p lp.Pricing) { solverPricing.Store(1 + int64(p)) }

// ResetPricing restores the suite's pinned default rule.
func ResetPricing() { solverPricing.Store(0) }

// SolverPricing returns the effective pricing rule: lp.PricingDantzig (the
// rule the committed trajectory files were recorded with) unless overridden.
func SolverPricing() lp.Pricing {
	if v := solverPricing.Load(); v != 0 {
		return lp.Pricing(v - 1)
	}
	return lp.PricingDantzig
}

// SetBasis overrides the basis representation (pcbench -basis).
func SetBasis(b lp.BasisMethod) { solverBasis.Store(1 + int64(b)) }

// ResetBasis restores the suite's default basis representation.
func ResetBasis() { solverBasis.Store(0) }

// SolverBasis returns the effective basis representation: lp.BasisEta (the
// representation the committed trajectory files were recorded with) unless
// overridden.
func SolverBasis() lp.BasisMethod {
	if v := solverBasis.Load(); v != 0 {
		return lp.BasisMethod(v - 1)
	}
	return lp.BasisEta
}

// lpOptions are the solver options every experiment passes to LP solves.
func lpOptions() lp.Options {
	return lp.Options{Method: SolverMethod(), Pricing: SolverPricing(), Basis: SolverBasis()}
}
