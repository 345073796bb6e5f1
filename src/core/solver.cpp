#include "core/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace fastcap {

FastCapSolver::FastCapSolver(const PolicyInputs &inputs,
                             SolverOptions opts)
    : _in(inputs), _opts(std::move(opts)), _queuing(inputs)
{
    if (_in.cores.empty())
        fatal("FastCapSolver: no cores in inputs");
    if (_in.memRatios.empty())
        fatal("FastCapSolver: empty memory ladder");
    if (_in.budget <= 0.0)
        fatal("FastCapSolver: non-positive budget");
    for (const SocketBudget &socket : _opts.socketBudgets) {
        if (socket.numCores == 0 || socket.firstCore > _in.cores.size() ||
            socket.numCores > _in.cores.size() - socket.firstCore)
            fatal("FastCapSolver: socket budget range [%zu, %zu) out "
                  "of bounds", socket.firstCore,
                  socket.firstCore + socket.numCores);
    }

    // Same summation order as PolicyInputs::staticPower(), so the
    // hoisted constant is bit-identical to a fresh evaluation.
    _staticPower = _in.staticPower();
    _minCoreRatio = _in.minCoreRatio();

    if (_opts.referenceImpl) {
        _minTurnaround.reserve(_in.cores.size());
        for (std::size_t i = 0; i < _in.cores.size(); ++i)
            _minTurnaround.push_back(_queuing.minTurnaround(i));
    } else {
        buildClasses();
    }
}

void
FastCapSolver::buildClasses()
{
    const std::size_t n = _in.cores.size();
    _classOf.resize(n);

    // Exact-bit class key: cores are interchangeable for the solve
    // iff every model parameter the inner loop reads is the same
    // double, including the controller-access row the queuing model
    // weights R by. A flat open-addressing table at most half full
    // maps a key's hash to a class id; a hit is confirmed against the
    // class representative's own fields, so nothing is copied or
    // allocated per core. Ids follow first occurrence.
    const auto fields = [this](std::size_t i) {
        const CoreModel &c = _in.cores[i];
        return std::array<std::uint64_t, 5>{
            doubleBits(c.zbar), doubleBits(c.cache), doubleBits(c.pi),
            doubleBits(c.alpha), doubleBits(c.pStatic)};
    };
    const auto same_row = [&](std::size_t i, std::size_t j) {
        const std::vector<double> &a = _in.accessProbs[i];
        const std::vector<double> &b = _in.accessProbs[j];
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          [](double x, double y) {
                              return doubleBits(x) == doubleBits(y);
                          });
    };
    const auto same_key = [&](std::size_t i, std::size_t j) {
        return fields(i) == fields(j) && same_row(i, j);
    };
    std::size_t table_size = 1;
    while (table_size < 2 * n)
        table_size <<= 1;
    const std::size_t mask = table_size - 1;
    constexpr std::uint32_t kFree = ~std::uint32_t{0};
    std::vector<std::uint32_t> slots(table_size, kFree);
    // Access rows get ids the same way, but only a new class looks
    // its row up, so the queuing model runs once per distinct row.
    std::vector<std::uint32_t> row_slots(table_size, kFree);
    _classRep.reserve(n);
    _classRow.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t row_h = 0;
        for (double p : _in.accessProbs[i])
            row_h = (row_h ^ doubleBits(p)) * 0x9e3779b97f4a7c15ULL;
        std::uint64_t h = row_h;
        for (std::uint64_t w : fields(i))
            h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        std::size_t s = splitmix64Mix(h) & mask;
        while (slots[s] != kFree && !same_key(i, _classRep[slots[s]]))
            s = (s + 1) & mask;
        if (slots[s] == kFree) {
            slots[s] = static_cast<std::uint32_t>(_classRep.size());
            _classRep.push_back(i);
            std::size_t r = splitmix64Mix(row_h) & mask;
            while (row_slots[r] != kFree &&
                   !same_row(i, _rowRep[row_slots[r]]))
                r = (r + 1) & mask;
            if (row_slots[r] == kFree) {
                row_slots[r] = static_cast<std::uint32_t>(_rowRep.size());
                _rowRep.push_back(i);
            }
            _classRow.push_back(row_slots[r]);
        }
        _classOf[i] = slots[s];
    }
    // R(1) per row for T̄ = z̄ + c + R(1), summed as
    // QueuingModel::minTurnaround does; every solve overwrites _rowR.
    _rowR.resize(_rowRep.size());
    for (std::size_t r = 0; r < _rowRep.size(); ++r)
        _rowR[r] = _queuing.minResponseTime(_rowRep[r]);

    const std::size_t k = _classRep.size();
    for (std::vector<double> *v :
         {&_classMinT, &_classCache, &_classZbar, &_classPi, &_classAlpha,
          &_classPStatic, &_classR, &_classRatio, &_classPowTerm})
        v->resize(k);
    // Filled the first time a class lands on f_min (classTermAt()).
    _classFloorTerm.assign(k, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t c = 0; c < k; ++c) {
        const std::size_t i = _classRep[c];
        const CoreModel &m = _in.cores[i];
        _classMinT[c] = m.zbar + m.cache + _rowR[_classRow[c]];
        _classCache[c] = m.cache;
        _classZbar[c] = m.zbar;
        _classPi[c] = m.pi;
        _classAlpha[c] = m.alpha;
        _classPStatic[c] = m.pStatic;
    }
}

// --- Per-core reference implementation (pre-hot-path) --------------

double
FastCapSolver::maxD(const std::vector<Seconds> &r_at_xb) const
{
    // D may rise until the fastest-constrained core hits z_i = z̄_i
    // (constraint 7): D <= T̄_i / (z̄_i + c_i + R_i(x_b)).
    double d_max = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const CoreModel &c = _in.cores[i];
        const double bound =
            _minTurnaround[i] / (c.zbar + c.cache + r_at_xb[i]);
        d_max = std::min(d_max, bound);
    }
    return d_max;
}

double
FastCapSolver::coreRatioAtD(std::size_t i, double d,
                            const std::vector<Seconds> &r_at_xb) const
{
    const CoreModel &c = _in.cores[i];
    // Eq. 8: z_i = T̄_i / D - c_i - R_i(x_b).
    const Seconds z = _minTurnaround[i] / d - c.cache - r_at_xb[i];
    if (z <= c.zbar) {
        // At or beyond the top of the ladder (D near maxD).
        return 1.0;
    }
    // Frequency-ladder floor: cores that would need to run below
    // f_min are pinned there; their power saturates, which preserves
    // monotonicity of power in D.
    return std::max(c.zbar / z, _in.minCoreRatio());
}

Watts
FastCapSolver::powerAtD(double d, double x_b,
                        const std::vector<Seconds> &r_at_xb,
                        std::vector<double> *ratios_out) const
{
    Watts p = _in.staticPower() +
        _in.memory.pm * std::pow(x_b, _in.memory.beta);

    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const CoreModel &c = _in.cores[i];
        const double x = coreRatioAtD(i, d, r_at_xb);
        p += c.pi * std::pow(x, c.alpha);
        if (ratios_out)
            (*ratios_out)[i] = x;
    }
    return p;
}

Watts
FastCapSolver::socketPowerAtD(const SocketBudget &socket, double d,
                              const std::vector<Seconds> &r_at_xb) const
{
    Watts p = 0.0;
    const std::size_t end = socket.firstCore + socket.numCores;
    for (std::size_t i = socket.firstCore; i < end; ++i) {
        const CoreModel &c = _in.cores[i];
        const double x = coreRatioAtD(i, d, r_at_xb);
        p += c.pi * std::pow(x, c.alpha) + c.pStatic;
    }
    return p;
}

// --- Equivalence-class hot path ------------------------------------

void
FastCapSolver::classResponseTimes(double x_b)
{
    // One queuing evaluation per distinct access-probability row:
    // R_i(x_b) depends on core i only through its row.
    for (std::size_t r = 0; r < _rowRep.size(); ++r)
        _rowR[r] = _queuing.responseTime(_rowRep[r], x_b);
    for (std::size_t c = 0; c < _classRep.size(); ++c)
        _classR[c] = _rowR[_classRow[c]];
    _termsD = std::numeric_limits<double>::quiet_NaN();
}

double
FastCapSolver::classMaxD() const
{
    // min over classes == min over cores: members share the bound.
    double d_max = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < _classRep.size(); ++c) {
        const double bound = _classMinT[c] /
            (_classZbar[c] + _classCache[c] + _classR[c]);
        d_max = std::min(d_max, bound);
    }
    return d_max;
}

void
FastCapSolver::classTermAt(double d, std::uint32_t c) const
{
    const Seconds z = _classMinT[c] / d - _classCache[c] - _classR[c];
    double x = 1.0;
    if (z > _classZbar[c])
        x = std::max(_classZbar[c] / z, _minCoreRatio);
    _classRatio[c] = x;
    // Saturated classes skip the pow with the same bits: pow(1, y) is
    // exactly 1 (C99 F.9.4.4), and the floor term is this expression
    // evaluated once per class, the first time the class lands on
    // f_min. Until then it is NaN; a NaN term is recomputed, to the
    // same bits.
    if (x == 1.0) {
        _classPowTerm[c] = _classPi[c];
    } else if (x == _minCoreRatio) {
        if (std::isnan(_classFloorTerm[c]))
            _classFloorTerm[c] =
                _classPi[c] * std::pow(_minCoreRatio, _classAlpha[c]);
        _classPowTerm[c] = _classFloorTerm[c];
    } else {
        _classPowTerm[c] = _classPi[c] * std::pow(x, _classAlpha[c]);
    }
}

void
FastCapSolver::classTermsAtD(double d) const
{
    // The scratch already holds this exact D's terms: the final
    // ratios at a root that ended on its last probe.
    if (doubleBits(d) == doubleBits(_termsD) && !std::isnan(d))
        return;
    // The only transcendental work per probe: one pow per
    // unsaturated class.
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(_classRep.size()); ++c)
        classTermAt(d, c);
    _termsD = d;
}

void
FastCapSolver::classTermsAtDFor(
    double d, const std::vector<std::uint32_t> &subset) const
{
    // Restricted to one socket's classes; entries are bit-equal to a
    // full recompute because both paths run the same classTermAt.
    for (const std::uint32_t c : subset)
        classTermAt(d, c);
    _termsD = std::numeric_limits<double>::quiet_NaN();
}

const std::vector<std::uint32_t> &
FastCapSolver::socketClasses(std::size_t socket_idx) const
{
    if (_socketClasses.size() != _opts.socketBudgets.size())
        _socketClasses.assign(_opts.socketBudgets.size(), {});
    std::vector<std::uint32_t> &classes = _socketClasses[socket_idx];
    if (classes.empty()) {
        // A validated socket holds >= 1 core, so an empty list means
        // "not built yet", never "no classes".
        const SocketBudget &socket = _opts.socketBudgets[socket_idx];
        std::vector<bool> present(_classRep.size(), false);
        const std::size_t end = socket.firstCore + socket.numCores;
        for (std::size_t i = socket.firstCore; i < end; ++i)
            present[_classOf[i]] = true;
        for (std::uint32_t c = 0;
             c < static_cast<std::uint32_t>(present.size()); ++c)
            if (present[c])
                classes.push_back(c);
    }
    return classes;
}

Watts
FastCapSolver::classPowerAtD(double d, double mem_term) const
{
    classTermsAtD(d);
    // Accumulate in original core order: the sum — and with it every
    // bisection iterate — is bit-identical to the per-core reference.
    Watts p = _staticPower + mem_term;
    for (const std::uint32_t c : _classOf)
        p += _classPowTerm[c];
    return p;
}

Watts
FastCapSolver::classSocketPowerAtD(std::size_t socket_idx,
                                   const SocketBudget &socket,
                                   double d) const
{
    classTermsAtDFor(d, socketClasses(socket_idx));
    // Per-core accumulation in original index order, exactly as the
    // reference socketPowerAtD sums — the partition above only limits
    // which pow terms get (re)computed, never the addition sequence.
    Watts p = 0.0;
    const std::size_t end = socket.firstCore + socket.numCores;
    for (std::size_t i = socket.firstCore; i < end; ++i) {
        const std::uint32_t c = _classOf[i];
        p += _classPowTerm[c] + _classPStatic[c];
    }
    return p;
}

// --- Inner solve ----------------------------------------------------

namespace {

/** Saturation flags of the binding root solve, by residual sign. */
void
applySaturation(InnerSolution &sol, const RootResult &binding)
{
    sol.saturatedLow = binding.saturated && binding.fx > 0.0;
    sol.saturatedHigh = binding.saturated && binding.fx < 0.0;
}

} // namespace

InnerSolution
FastCapSolver::solveAtMemRatio(double x_b)
{
    if (_opts.referenceImpl)
        return referenceSolveAtMemRatio(x_b);
    return classSolveAtMemRatio(x_b);
}

InnerSolution
FastCapSolver::referenceSolveAtMemRatio(double x_b)
{
    ++_evaluations;

    std::vector<Seconds> r_at_xb(_in.cores.size());
    for (std::size_t i = 0; i < _in.cores.size(); ++i)
        r_at_xb[i] = _queuing.responseTime(i, x_b);

    const double d_hi = maxD(r_at_xb);
    // Below d_lo every core is pinned at f_min and power is constant;
    // the root (if any) lies above it.
    const double d_lo = d_hi * 1e-4;

    const auto residual = [&](double d) {
        return powerAtD(d, x_b, r_at_xb, nullptr) - _in.budget;
    };

    const RootResult root = solveMonotone(
        residual, d_lo, d_hi, d_hi * _opts.dTolerance,
        _in.budget * 1e-9, 200, _rootSeed);
    if (!root.saturated)
        _rootSeed = {root.x, root.slope};

    // Per-processor constraints (6'): each socket's own monotone
    // solve bounds D as well; the system runs at the tightest one so
    // degradation stays equal across all applications.
    InnerSolution sol;
    sol.d = root.x;
    sol.rootIterations = root.iterations;
    applySaturation(sol, root);
    for (const SocketBudget &socket : _opts.socketBudgets) {
        const auto socket_residual = [&](double d) {
            return socketPowerAtD(socket, d, r_at_xb) - socket.budget;
        };
        const RootResult socket_root = solveMonotone(
            socket_residual, d_lo, d_hi, d_hi * _opts.dTolerance,
            std::max(socket.budget, 1.0) * 1e-9, 200);
        sol.rootIterations += socket_root.iterations;
        if (socket_root.x < sol.d) {
            sol.d = socket_root.x;
            applySaturation(sol, socket_root);
        }
    }

    sol.memRatio = x_b;
    sol.coreRatios.assign(_in.cores.size(), 1.0);
    sol.predictedPower = powerAtD(sol.d, x_b, r_at_xb, &sol.coreRatios);
    finishSolution(sol, &r_at_xb);
    return sol;
}

InnerSolution
FastCapSolver::classSolveAtMemRatio(double x_b)
{
    ++_evaluations;

    classResponseTimes(x_b);

    const double d_hi = classMaxD();
    const double d_lo = d_hi * 1e-4;
    const double mem_term =
        _in.memory.pm * std::pow(x_b, _in.memory.beta);

    const auto residual = [&](double d) {
        return classPowerAtD(d, mem_term) - _in.budget;
    };

    const RootResult root = solveMonotone(
        residual, d_lo, d_hi, d_hi * _opts.dTolerance,
        _in.budget * 1e-9, 200, _rootSeed);
    if (!root.saturated)
        _rootSeed = {root.x, root.slope};

    InnerSolution sol;
    sol.d = root.x;
    sol.rootIterations = root.iterations;
    applySaturation(sol, root);
    for (std::size_t s = 0; s < _opts.socketBudgets.size(); ++s) {
        const SocketBudget &socket = _opts.socketBudgets[s];
        const auto socket_residual = [&](double d) {
            return classSocketPowerAtD(s, socket, d) - socket.budget;
        };
        const RootResult socket_root = solveMonotone(
            socket_residual, d_lo, d_hi, d_hi * _opts.dTolerance,
            std::max(socket.budget, 1.0) * 1e-9, 200);
        sol.rootIterations += socket_root.iterations;
        if (socket_root.x < sol.d) {
            sol.d = socket_root.x;
            applySaturation(sol, socket_root);
        }
    }

    sol.memRatio = x_b;
    sol.coreRatios.resize(_in.cores.size());
    classTermsAtD(sol.d);
    Watts p = _staticPower + mem_term;
    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const std::uint32_t c = _classOf[i];
        p += _classPowTerm[c];
        sol.coreRatios[i] = _classRatio[c];
    }
    sol.predictedPower = p;
    finishSolution(sol, nullptr);
    return sol;
}

void
FastCapSolver::finishSolution(InnerSolution &sol,
                              const std::vector<Seconds> *r_at_xb) const
{
    // A 1e-3 relative slack, far above the root solve's 1e-9
    // residual tolerance, so a solution sitting right on the budget
    // is not misreported as infeasible.
    sol.budgetFeasible =
        sol.predictedPower <= _in.budget * (1.0 + 1e-3);
    for (std::size_t s = 0; s < _opts.socketBudgets.size(); ++s) {
        const SocketBudget &socket = _opts.socketBudgets[s];
        const Watts sp = r_at_xb
            ? socketPowerAtD(socket, sol.d, *r_at_xb)
            : classSocketPowerAtD(s, socket, sol.d);
        if (sp > socket.budget * (1.0 + 1e-3))
            sol.budgetFeasible = false;
    }
    if (!sol.budgetFeasible) {
        // Budget below this memory level's floor power. Rank such
        // points below every feasible one, ordered by how far over
        // budget the floor sits: the memory-level search then walks
        // toward cheaper levels instead of chasing the meaningless
        // saturated-D placeholder.
        sol.d = -(sol.predictedPower - _in.budget) / _in.budget;
    }
}

InnerSolution
FastCapSolver::solveAtMemIndex(std::size_t mem_index)
{
    return solveAtMemRatio(_in.memRatios.at(mem_index));
}

SolveResult
FastCapSolver::solve()
{
    const std::size_t m = _in.memRatios.size();
    SolveResult result;

    // Restrict the search to the queuing model's validity domain:
    // below this index the measured arrival rate would saturate the
    // bus and Eq. 1's extrapolation collapses.
    bool clamped = false;
    const std::size_t floor_idx = minMemIndexForUtilisation(
        _in, _opts.maxBusUtilisation, &clamped);
    result.utilisationClamped = clamped;
    if (clamped)
        warn("FastCapSolver: no memory level keeps bus utilisation "
             "below %.2f at the measured demand; solving at the top "
             "of the ladder, outside the queuing model's validity "
             "domain", _opts.maxBusUtilisation);

    if (_opts.exhaustiveMemSearch || m - floor_idx <= 3) {
        // Reference path: scan every admissible memory level (used by
        // the ablation bench to validate the binary search).
        InnerSolution best;
        std::size_t best_idx = floor_idx;
        bool first = true;
        for (std::size_t idx = floor_idx; idx < m; ++idx) {
            InnerSolution s = solveAtMemIndex(idx);
            result.rootIterations += s.rootIterations;
            if (first || s.d > best.d) {
                first = false;
                best = std::move(s);
                best_idx = idx;
            }
        }
        result.best = std::move(best);
        result.memIndex = best_idx;
        result.evaluations = _evaluations;
        return result;
    }

    // Algorithm 1 over memoized inner solves: a level the search
    // compares twice is solved once.
    std::vector<InnerSolution> memo(m);
    std::vector<bool> have(m, false);
    const auto eval = [&](std::size_t idx) -> const InnerSolution & {
        if (!have[idx]) {
            memo[idx] = solveAtMemIndex(idx);
            have[idx] = true;
            result.rootIterations += memo[idx].rootIterations;
        }
        return memo[idx];
    };
    const std::size_t idx = searchMemLevels(
        floor_idx, m, _opts.warmStart,
        [&](std::size_t level) { return eval(level).d; });
    result.best = eval(idx);
    result.memIndex = idx;
    result.evaluations = _evaluations;
    return result;
}

std::size_t
searchMemLevels(std::size_t floor_idx, std::size_t m,
                const WarmStart &warm,
                const std::function<double(std::size_t)> &eval)
{
    constexpr double kNone = -std::numeric_limits<double>::infinity();

    // Warm start: probe the previous epoch's level and its
    // neighbours first (the lower one, as in the search below, only
    // once the upper one has not won). Confirming a local optimum
    // there picks the same level as the cold search (the D(m) curve
    // is unimodal and the inner solve at a level does not depend on
    // the search trajectory), at 2-3 inner solves instead of
    // ~2 log2 M.
    if (warm.valid) {
        const std::size_t h = std::clamp(warm.memIndex, floor_idx, m - 1);
        const double d_h = eval(h);
        const double d_up = h + 1 <= m - 1 ? eval(h + 1) : kNone;
        if (d_h >= d_up &&
            d_h >= (h >= floor_idx + 1 ? eval(h - 1) : kNone))
            return h;
    }

    std::size_t lo = floor_idx;
    std::size_t hi = m - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        const double d_mid = eval(mid);
        if ((mid + 1 <= hi ? eval(mid + 1) : kNone) > d_mid)
            lo = mid + 1;       // ascending to the right
        else if ((mid >= lo + 1 ? eval(mid - 1) : kNone) > d_mid)
            hi = mid - 1;       // ascending to the left
        else
            lo = hi = mid;      // local (= global, unimodal) optimum
    }
    return lo;
}

} // namespace fastcap
