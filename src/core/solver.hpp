/**
 * @file
 * The FastCap optimization solver (Section III-B).
 *
 * The optimization:
 *
 *   maximize D
 *   s.t. (z_i + c_i + R(s_b)) / (z̄_i + c_i + R(s̄_b)) <= 1/D   (5)
 *        sum_i P_i (z̄_i/z_i)^alpha_i + P_m (s̄_b/s_b)^beta + P_s
 *            <= B * P̄                                          (6)
 *        z_i >= z̄_i, s_b >= s̄_b                                (7)
 *
 * Theorem 1: both (5) and (6) are tight at the optimum. For a fixed
 * memory ratio x_b this reduces the problem to one unknown D, with
 *
 *     z_i(D) = T̄_i / D - c_i - R_i(x_b)        (Eq. 8)
 *
 * and total power strictly increasing in D, so D is found by a
 * monotone root solve in O(N) per evaluation. The computed power is
 * non-decreasing in D up to rounding below the solve's tol_f (every
 * step but std::pow is correctly rounded, and the sum runs in a fixed
 * order), which is solveMonotone's contract. A binary search over
 * the M memory levels (Algorithm 1) gives O(N log M) overall.
 *
 * Frequency-ladder clamping: cores whose required ratio falls below
 * f_min/f_max are pinned at the lowest frequency; their power
 * contribution saturates, keeping the power curve monotone in D.
 *
 * Hot-path design for large N (docs/ARCHITECTURE.md, "Solver hot
 * path"): per-core constants are gathered once per construction into
 * a flat structure-of-arrays scratch, and cores sharing the same
 * model parameters (z̄, c, P_i, alpha, P_static, controller-access
 * row) are collapsed into *equivalence classes*. Every transcendental
 * (std::pow) and queuing evaluation runs once per class per probe;
 * the per-core work left in the inner loop is a table lookup and an
 * add, kept in original core order so the accumulated power — and
 * therefore every bisection iterate and the final SolveResult — is
 * bit-identical to the per-core reference path
 * (SolverOptions::referenceImpl). Homogeneous mixes collapse to one
 * class, making the solve O(#classes log M) instead of O(N log M)
 * in transcendental work.
 */

#ifndef FASTCAP_CORE_SOLVER_HPP
#define FASTCAP_CORE_SOLVER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/inputs.hpp"
#include "core/queuing_model.hpp"
#include "util/math.hpp"
#include "util/units.hpp"

namespace fastcap {

/** Outcome of the inner solve at one memory level. */
struct InnerSolution
{
    /**
     * Achieved performance factor in (0, 1] when the budget is
     * feasible at this memory level. When infeasible (floor power
     * above budget), holds a negative penalty proportional to the
     * overshoot so the memory search orders such points correctly.
     */
    double d = 0.0;
    double memRatio = 1.0;        //!< x_b evaluated
    std::vector<double> coreRatios; //!< x_i per core, in (0, 1]
    Watts predictedPower = 0.0;   //!< model power at this point
    bool budgetFeasible = false;  //!< power <= budget (within tol)
    /**
     * The binding root solve clamped at the D floor: the budget sits
     * below this memory level's floor power (every core already at
     * f_min). Propagated from RootResult::saturated so infeasibility
     * is an explicit diagnostic, not an inference from a residual.
     */
    bool saturatedLow = false;
    /**
     * The binding root solve clamped at maxD: the budget exceeds
     * what this memory level can spend even at full throttle.
     */
    bool saturatedHigh = false;
    /** Function evaluations the root solves consumed. */
    int rootIterations = 0;
};

/** Outcome of the full FastCap solve. */
struct SolveResult
{
    InnerSolution best;
    std::size_t memIndex = 0;   //!< chosen memory ladder index
    int evaluations = 0;        //!< inner solves performed
    /** Root-solve residual calls summed over every inner solve the
     *  search ran (best.rootIterations counts the chosen one only). */
    int rootIterations = 0;
    /**
     * The bus-utilisation guard found no admissible memory level and
     * clamped the search to the top of the ladder: the solution was
     * computed outside the queuing model's validity domain (Eq. 1
     * extrapolation past saturation) and must be treated as a
     * best-effort fallback, not a model-backed optimum.
     */
    bool utilisationClamped = false;
};

/**
 * A per-processor (socket) power budget: constrains the total power
 * (dynamic + static) of a contiguous range of cores. Section III-B:
 * "it can be extended to capture per-processor power budgets by
 * adding a constraint similar to constraint 6 for each processor."
 */
struct SocketBudget
{
    std::size_t firstCore = 0;
    std::size_t numCores = 0;
    Watts budget = 0.0;
};

/**
 * Previous-epoch solution hint. With `valid`, the memory-level search
 * probes `memIndex` and its neighbours first: under the unimodality
 * Algorithm 1 already assumes, confirming a local optimum there picks
 * the same level as the cold search while skipping most level probes.
 * This fast path is result-identical by construction (the inner solve
 * at a level does not depend on the search trajectory).
 */
struct WarmStart
{
    bool valid = false;
    std::size_t memIndex = 0;
};

/** Options controlling the FastCap solve. */
struct SolverOptions
{
    /** Bisection tolerance on D (relative). */
    double dTolerance = 1e-6;
    /** Scan all M memory levels instead of binary search. */
    bool exhaustiveMemSearch = false;
    /**
     * Disable the structure-of-arrays / equivalence-class hot path
     * and run the historical per-core implementation (one pow and
     * one queuing evaluation per core per probe, fresh vectors per
     * call). The results are bit-identical either way — enforced by
     * the solver fuzz suite — so this exists as the cross-check
     * reference and as the perf baseline for bench_overhead.
     */
    bool referenceImpl = false;
    /**
     * Highest predicted bus utilisation the memory search may visit
     * (Eq. 1's validity domain; see minMemIndexForUtilisation).
     * Non-positive disables the guard.
     */
    double maxBusUtilisation = 0.9;
    /** Previous-epoch hint; see WarmStart. */
    WarmStart warmStart;
    /**
     * Optional per-processor budgets (additional constraints 6').
     * The achieved D becomes the minimum of the global solve and
     * each socket's own monotone solve; all cores then run at that
     * common D, preserving system-wide fairness.
     */
    std::vector<SocketBudget> socketBudgets;
};

/**
 * Algorithm 1's binary search over the memory levels [floor_idx, m),
 * on a D(m) curve that is unimodal by convexity of the underlying
 * problem. `eval(idx)` returns D at level idx; it may be asked for
 * the same level more than once, so a caller whose levels are costly
 * memoizes. With `warm.valid`, the hinted level and its neighbours
 * are probed first, and a local optimum there ends the search.
 *
 * Neighbour probes are lazy: the level below is evaluated only once
 * the level above has failed to beat the probed one, so no D the
 * comparisons never read is computed. The comparisons run in a fixed
 * order on the same values either way, so the chosen level is the one
 * an eager search (both neighbours first) chooses. Returns it.
 */
std::size_t searchMemLevels(std::size_t floor_idx, std::size_t m,
                            const WarmStart &warm,
                            const std::function<double(std::size_t)> &eval);

/**
 * Implements the inner Theorem-1 solve and Algorithm 1's binary
 * search over memory frequencies.
 */
class FastCapSolver
{
  public:
    explicit FastCapSolver(const PolicyInputs &inputs,
                           SolverOptions opts = SolverOptions{});

    /**
     * Full solve: Algorithm 1. Returns the best memory level, the
     * per-core ratios at that level, and bookkeeping for complexity
     * accounting.
     */
    SolveResult solve();

    /**
     * Inner solve at a fixed memory ladder index (the O(N) step).
     * Exposed for the baseline policies and for tests of Theorem 1.
     */
    InnerSolution solveAtMemIndex(std::size_t mem_index);

    /**
     * Inner solve at an arbitrary memory ratio x_b (not necessarily
     * on the ladder).
     */
    InnerSolution solveAtMemRatio(double x_b);

    /** Inner-solve evaluations since construction. */
    int evaluations() const { return _evaluations; }

    /** Distinct core equivalence classes (1 for homogeneous mixes). */
    std::size_t numClasses() const { return _classRep.size(); }

    /** Class id of a core, in first-occurrence order (not in
     *  referenceImpl mode, which builds no classes). */
    std::uint32_t classOf(std::size_t core) const
    {
        return _classOf[core];
    }

    const QueuingModel &queuing() const { return _queuing; }

  private:
    /** Power as a function of D at fixed x_b (monotone increasing). */
    Watts powerAtD(double d, double x_b,
                   const std::vector<Seconds> &r_at_xb,
                   std::vector<double> *ratios_out) const;

    /** Core-ratio x_i implied by D at fixed x_b (Eq. 8 + clamps). */
    double coreRatioAtD(std::size_t core, double d,
                        const std::vector<Seconds> &r_at_xb) const;

    /** Total power (dynamic + static) of one socket's cores at D. */
    Watts socketPowerAtD(const SocketBudget &socket, double d,
                         const std::vector<Seconds> &r_at_xb) const;

    /** Largest feasible D at x_b (all constraints 7 satisfied). */
    double maxD(const std::vector<Seconds> &r_at_xb) const;

    // --- Equivalence-class hot path -------------------------------
    // Per-class mirrors of the per-core quantities above. The class
    // scratch is sized once at construction; per-probe state lives in
    // mutable members so the inner loop performs no allocation.

    /** Group cores into classes; fill the SoA scratch. */
    void buildClasses();

    /** Per-class R(x_b); one queuing evaluation per access row. */
    void classResponseTimes(double x_b);

    /**
     * Ratio and pi*x^alpha of one class at D, written into the
     * scratch. The single definition of the per-class arithmetic:
     * both the full and the subset recompute call it, so their
     * entries are bit-equal by construction (the arithmetic mirrors
     * coreRatioAtD()/powerAtD() exactly, one pow per call).
     */
    void classTermAt(double d, std::uint32_t c) const;

    /** Per-class ratio and pi*x^alpha at D (one pow per class). */
    void classTermsAtD(double d) const;

    /**
     * As classTermsAtD, but only for the classes listed in `subset`
     * (a socket's partition): socket residual probes evaluate one pow
     * per class *present in that socket* instead of one per class in
     * the whole system. Each listed class's term carries the same
     * bits classTermsAtD would produce, so the per-core accumulation
     * reading the scratch is unaffected.
     */
    void classTermsAtDFor(double d,
                          const std::vector<std::uint32_t> &subset) const;

    /** Lazily built socket -> classes-present partition. */
    const std::vector<std::uint32_t> &
    socketClasses(std::size_t socket_idx) const;

    Watts classPowerAtD(double d, double mem_term) const;
    Watts classSocketPowerAtD(std::size_t socket_idx,
                              const SocketBudget &socket,
                              double d) const;
    double classMaxD() const;
    InnerSolution classSolveAtMemRatio(double x_b);
    InnerSolution referenceSolveAtMemRatio(double x_b);

    /** Shared tail: feasibility + infeasibility penalty ordering. */
    void finishSolution(InnerSolution &sol,
                        const std::vector<Seconds> *r_at_xb) const;

    const PolicyInputs &_in;
    SolverOptions _opts;
    QueuingModel _queuing;
    std::vector<Seconds> _minTurnaround; //!< T̄_i per core (reference)
    int _evaluations = 0;
    /**
     * Root and slope of the last unsaturated system-wide D solve.
     * Seeds the next one: the levels a search solves are neighbours
     * with nearby roots. Changes only the call count, never a bit of
     * a solution.
     */
    RootSeed _rootSeed;

    // Constants hoisted out of the per-probe loops.
    Watts _staticPower = 0.0;
    double _minCoreRatio = 1.0;

    // Class scratch (SoA), built once per construction.
    std::vector<std::uint32_t> _classOf;   //!< core -> class id
    std::vector<std::size_t> _classRep;    //!< representative core
    std::vector<double> _classMinT;        //!< T̄ per class
    std::vector<double> _classCache;       //!< c per class
    std::vector<double> _classZbar;        //!< z̄ per class
    std::vector<double> _classPi;          //!< P_i per class
    std::vector<double> _classAlpha;       //!< alpha per class
    std::vector<double> _classPStatic;     //!< P_static per class
    std::vector<std::uint32_t> _classRow;  //!< class -> access-row id
    std::vector<std::size_t> _rowRep;      //!< representative core per row
    /** P_i x_min^alpha per class, NaN until first needed. */
    mutable std::vector<double> _classFloorTerm;
    // Per-probe state, reused across solves (no allocation).
    std::vector<double> _rowR;             //!< R(x_b) per access row
    std::vector<double> _classR;           //!< R(x_b) per class
    mutable std::vector<double> _classRatio;   //!< x(D) per class
    mutable std::vector<double> _classPowTerm; //!< P_i x^alpha per class
    /** D whose terms fill the whole scratch; NaN after R changes or
     *  a socket subset overwrote part of it. */
    mutable double _termsD = std::numeric_limits<double>::quiet_NaN();
    /**
     * Socket index -> ascending class ids present in that socket's
     * core range. Built lazily at the first socket probe (ranges are
     * checked at construction), so socket residual evaluations
     * stop paying one pow per class *system-wide*.
     */
    mutable std::vector<std::vector<std::uint32_t>> _socketClasses;
};

} // namespace fastcap

#endif // FASTCAP_CORE_SOLVER_HPP
