#include "workload/spec_table.hpp"

#include <map>
#include <utility>

#include "util/logging.hpp"

namespace fastcap {
namespace workloads {

namespace {

/**
 * Build a three-phase cyclic profile around base parameters.
 *
 * Phase fractions 0.5/0.3/0.2 of the cycle; the MPKI multipliers are
 * chosen so the instruction-weighted average MPKI equals the base:
 * 0.5(1-0.6v) + 0.3(1+0.4v) + 0.2(1+0.9v) = 1.
 *
 * @param v      phase variability in [0, 1): 0 = stationary
 * @param period cycle length in instructions
 */
AppProfile
makeProfile(const std::string &name, double cpi, double mpki,
            double wpki, double activity, double v, double period)
{
    const double m1 = 1.0 - 0.6 * v;
    const double m2 = 1.0 + 0.4 * v;
    const double m3 = 1.0 + 0.9 * v;

    auto phase = [&](double frac, double mult, double act_mult) {
        Phase p;
        p.instructions = period * frac;
        p.cpiExec = cpi;
        p.mpki = mpki * mult;
        p.wpki = wpki * mult;
        p.activity = std::min(1.0, activity * act_mult);
        return p;
    };

    // Low-MPKI phases are compute-denser: slightly higher activity.
    std::vector<Phase> phases{
        phase(0.5, m1, 1.05),
        phase(0.3, m2, 1.0),
        phase(0.2, m3, 0.92),
    };
    return AppProfile(name, std::move(phases));
}

/** The application table, keyed by SPEC-style name. */
const std::map<std::string, AppProfile> &
table()
{
    static const std::map<std::string, AppProfile> tbl = [] {
        std::map<std::string, AppProfile> t;
        auto add = [&t](const std::string &name, double cpi,
                        double mpki, double wpki, double act, double v,
                        double period_mi) {
            t.emplace(name, makeProfile(name, cpi, mpki, wpki, act, v,
                                        period_mi * 1e6));
        };

        // --- compute-intensive (ILP class) --------------------------
        //   name      cpi   mpki  wpki  act   var  period(Mi)
        add("vortex",  1.05, 0.35, 0.06, 0.95, 0.20, 17);
        add("gcc",     1.10, 0.25, 0.05, 0.90, 0.35, 23);
        add("sixtrack",0.95, 0.45, 0.08, 0.98, 0.15, 13);
        add("mesa",    1.00, 0.40, 0.07, 0.92, 0.25, 19);
        add("perlbmk", 1.05, 0.13, 0.03, 0.93, 0.30, 29);
        add("crafty",  0.95, 0.10, 0.02, 0.97, 0.20, 11);
        add("gzip",    1.10, 0.22, 0.04, 0.88, 0.30, 21);
        add("eon",     1.00, 0.16, 0.03, 0.94, 0.15, 15);
        add("hmmer",   0.90, 0.50, 0.10, 0.96, 0.25, 14);
        add("gobmk",   1.15, 0.60, 0.12, 0.90, 0.35, 26);
        add("sjeng",   1.05, 0.45, 0.08, 0.92, 0.25, 18);

        // --- balanced (MID class) -----------------------------------
        add("ammp",    1.20, 1.50, 0.65, 0.80, 0.50, 22);
        add("gap",     1.10, 1.10, 0.45, 0.82, 0.40, 16);
        add("wupwise", 1.15, 2.45, 1.05, 0.78, 0.45, 27);
        add("vpr",     1.25, 2.00, 0.85, 0.75, 0.50, 12);
        add("astar",   1.20, 2.30, 0.95, 0.76, 0.55, 24);
        add("parser",  1.15, 1.80, 0.75, 0.79, 0.45, 18);
        add("twolf",   1.25, 3.00, 1.05, 0.72, 0.50, 14);
        add("facerec", 1.10, 3.35, 1.15, 0.74, 0.55, 20);
        add("apsi",    1.15, 0.80, 0.45, 0.83, 0.40, 25);
        add("bzip2",   1.10, 0.60, 0.30, 0.85, 0.45, 15);

        // --- memory-intensive (MEM class) ---------------------------
        add("swim",    1.30, 18.0, 7.8,  0.58, 0.70, 25);
        add("applu",   1.25, 15.0, 6.3,  0.60, 0.55, 19);
        add("galgel",  1.20, 8.0,  2.6,  0.65, 0.50, 16);
        add("equake",  1.30, 9.5,  3.1,  0.62, 0.60, 22);
        add("art",     1.15, 11.0, 3.5,  0.60, 0.55, 13);
        add("milc",    1.25, 8.3,  2.7,  0.63, 0.50, 28);
        add("mgrid",   1.20, 5.5,  1.8,  0.68, 0.45, 17);
        add("fma3d",   1.25, 6.2,  2.0,  0.66, 0.55, 21);
        add("sphinx3", 1.15, 4.4,  1.4,  0.70, 0.50, 15);
        add("lucas",   1.20, 3.0,  1.0,  0.72, 0.45, 23);

        return t;
    }();
    return tbl;
}

/** Table III: workload name -> its four applications. */
const std::map<std::string, std::vector<std::string>> &
mixTable()
{
    static const std::map<std::string, std::vector<std::string>> tbl{
        {"ILP1", {"vortex", "gcc", "sixtrack", "mesa"}},
        {"ILP2", {"perlbmk", "crafty", "gzip", "eon"}},
        {"ILP3", {"sixtrack", "mesa", "perlbmk", "crafty"}},
        {"ILP4", {"vortex", "gcc", "gzip", "eon"}},
        {"MID1", {"ammp", "gap", "wupwise", "vpr"}},
        {"MID2", {"astar", "parser", "twolf", "facerec"}},
        {"MID3", {"apsi", "bzip2", "ammp", "gap"}},
        {"MID4", {"wupwise", "vpr", "astar", "parser"}},
        {"MEM1", {"swim", "applu", "galgel", "equake"}},
        {"MEM2", {"art", "milc", "mgrid", "fma3d"}},
        {"MEM3", {"fma3d", "mgrid", "galgel", "equake"}},
        {"MEM4", {"swim", "applu", "sphinx3", "lucas"}},
        {"MIX1", {"applu", "hmmer", "gap", "gzip"}},
        {"MIX2", {"milc", "gobmk", "facerec", "perlbmk"}},
        {"MIX3", {"equake", "ammp", "sjeng", "crafty"}},
        {"MIX4", {"swim", "ammp", "twolf", "sixtrack"}},
    };
    return tbl;
}

} // namespace

const AppProfile &
spec(const std::string &name)
{
    const auto &t = table();
    auto it = t.find(name);
    if (it == t.end())
        fatal("workloads::spec: unknown application '%s'",
              name.c_str());
    return it->second;
}

const AppProfile &
idleProfile()
{
    static const AppProfile idle = [] {
        Phase p;
        p.instructions = 10e6;
        p.cpiExec = 1.0;
        p.mpki = 0.005; // one miss per 200k instructions
        p.wpki = 0.0;
        p.activity = 0.05;
        return AppProfile("idle", p);
    }();
    return idle;
}

const AppProfile *
findProfile(const std::string &name)
{
    if (name == "idle")
        return &idleProfile();
    const auto &t = table();
    const auto it = t.find(name);
    return it == t.end() ? nullptr : &it->second;
}

const AppProfile &
profile(const std::string &name)
{
    const AppProfile *p = findProfile(name);
    if (p == nullptr)
        fatal("workloads::profile: unknown application '%s'",
              name.c_str());
    return *p;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    names.reserve(mixTable().size());
    // Table III order: ILP, MID, MEM, MIX.
    for (const char *cls : {"ILP", "MID", "MEM", "MIX"})
        for (int i = 1; i <= 4; ++i)
            names.push_back(std::string(cls) + std::to_string(i));
    return names;
}

std::vector<std::string>
mixApps(const std::string &workload)
{
    const auto &t = mixTable();
    auto it = t.find(workload);
    if (it == t.end())
        fatal("workloads::mixApps: unknown workload '%s'",
              workload.c_str());
    return it->second;
}

std::string
classOf(const std::string &workload)
{
    if (workload.size() < 4)
        fatal("workloads::classOf: bad workload name '%s'",
              workload.c_str());
    return workload.substr(0, 3);
}

std::vector<std::string>
workloadsOfClass(const std::string &cls)
{
    std::vector<std::string> names;
    for (const std::string &w : workloadNames())
        if (classOf(w) == cls)
            names.push_back(w);
    if (names.empty())
        fatal("workloads::workloadsOfClass: unknown class '%s'",
              cls.c_str());
    return names;
}

std::vector<AppProfile>
mix(const std::string &workload, int cores)
{
    if (workload == "idle") {
        if (cores < 1)
            fatal("workloads::mix: core count must be positive "
                  "(got %d)", cores);
        return std::vector<AppProfile>(
            static_cast<std::size_t>(cores), idleProfile());
    }
    if (cores < 4 || cores % 4 != 0)
        fatal("workloads::mix: core count must be a positive multiple "
              "of 4 (got %d)", cores);

    const std::vector<std::string> apps = mixApps(workload);
    std::vector<AppProfile> out;
    out.reserve(static_cast<std::size_t>(cores));
    // Interleave: a b c d a b c d ... (N/4 copies of each).
    for (int i = 0; i < cores; ++i)
        out.push_back(spec(apps[static_cast<std::size_t>(i % 4)]));
    return out;
}

} // namespace workloads
} // namespace fastcap
