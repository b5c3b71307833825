/**
 * @file
 * Reproduces table 6.1 (section 6.1): the matrix update
 * A(N,N) += B(N,K) * C(K,N) on one square tile of maximum size, i.e.
 * the greatest N with N^2 a multiple of P and N^2 <= Tf * P. Sweeps
 * P in {1,4,16}, Tf in {512, 2048}, tau in {2, 4} and
 * K in {40, 100, 300, 1000}; results normalized in multiply-adds per
 * cycle (whole coprocessor).
 *
 * The paper's table values were lost in the source scan; its stated
 * anchors are (a) asymptotic performance "very close to one
 * multiply-add per cycle [per cell]" outside the bandwidth-bound
 * corner, and (b) the tau=4, Tf=512, P=16 corner where feeding one
 * iteration costs 704 = 4*(88+88) host cycles against 484 multiply-
 * adds per cell (an 11.0 MA/cycle ceiling). The "bound" column prints
 * the analytic host-bandwidth ceiling next to each measurement.
 *
 * The fig. 5 sequencing reloads the reby queue with B(:,k) before
 * computing (the paper's explicit sequencing); bench/ablation_overlap
 * measures the variant that hides the reload.
 *
 * The sweep cases are independent simulations and run concurrently
 * (--jobs N, default hardware concurrency); tables, the JSON file and
 * the traced/sampled representative run are identical at any job
 * count.
 */

#include <algorithm>
#include <cstdio>
#include <functional>

#include "analytic/models.hh"
#include "bench_util.hh"
#include "planner/linalg_plan.hh"

using namespace opac;
using namespace opac::bench;
using namespace opac::planner;

namespace
{

struct CaseSpec
{
    unsigned p;
    std::size_t tf;
    unsigned tau;
    std::size_t n;
    std::size_t k;
    bool traced;
    bool sampled;
    bool snapped;
};

struct CaseResult
{
    Cycle cycles;
    double r; //!< multiply-adds per cycle, whole coprocessor
    double maPerCycle;
    double wall;
};

CaseResult
runCase(const CaseSpec &spec, TraceSession &trace, StatsSession &stats,
        SnapshotSession &snapshot)
{
    auto cfg = timingConfig(spec.p, spec.tf, spec.tau);
    if (spec.sampled)
        cfg.statsSampleInterval = stats.sampleInterval();
    copro::Coprocessor sys(cfg);
    if (spec.sampled)
        stats.attach(sys);
    kernels::installStandardKernels(sys);
    LinalgPlanner plan(sys);
    MatRef c = allocMat(sys.memory(), spec.n, spec.n);
    MatRef a = allocMat(sys.memory(), spec.n, spec.k);
    MatRef b = allocMat(sys.memory(), spec.k, spec.n);
    plan.matUpdate(c, a, b);
    plan.commit();
    if (spec.traced)
        trace.attach(sys);
    // Claiming restores --resume-from state (program, memory, clock)
    // over the freshly planned machine; runClaimed pauses at
    // --snapshot-at to write the checkpoint. Byte-identical either
    // way (docs/RESILIENCE.md, "Checkpoint & replay").
    if (spec.snapped)
        snapshot.attach(sys);
    double t0 = wallSeconds();
    Cycle cycles = spec.snapped ? snapshot.runClaimed() : sys.run();
    double wall = wallSeconds() - t0;
    double r = analytic::matUpdateMultiplyAdds(spec.n, spec.k)
               / double(cycles);
    if (spec.traced) {
        // The aggregator's measured MA occupancy must agree with the
        // occupancy computed from the analytic operation count — the
        // trace sees every issue event the datapath executes.
        trace.finish(sys.engine().now(), r);
    }
    if (spec.sampled)
        stats.finish();
    return {cycles, r, sys.stats().scalarValue("maPerCycle"), wall};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const bool quick = argFlag(argc, argv, "--quick");
    const unsigned jobs = initSimFlags(argc, argv);
    BenchJsonWriter json("table_6_1");
    json.config("fp", "token");
    json.config("quick", quick ? 1 : 0);
    json.config("fast_tier", fastTierDefault() ? "on" : "off");
    TraceSession trace(argc, argv);
    StatsSession stats(argc, argv);
    SnapshotSession snapshot(argc, argv);
    const unsigned cells[] = {1, 4, 16};
    const std::size_t tfs[] = {512, 2048};
    const unsigned taus[] = {2, 4};
    const std::size_t ks[] = {40, 100, 300,
                              std::size_t(quick ? 300 : 1000)};

    std::printf("Paper table 6.1: matrix update "
                "A(N,N) += B(N,K)*C(K,N), one maximum square tile.\n"
                "All values in multiply-adds per cycle (whole "
                "coprocessor; divide by P for per-cell).\n\n");

    std::vector<CaseSpec> specs;
    for (unsigned tau : taus) {
        for (std::size_t tf : tfs) {
            for (unsigned p : cells) {
                std::size_t n = analytic::paperTileN(p, tf);
                for (std::size_t k : ks) {
                    // Trace/sample the first compute-bound
                    // configuration (P=1, Tf=2048, tau=2, K=300)
                    // when asked.
                    bool rep = p == 1 && tf == 2048 && tau == 2
                               && k == 300;
                    bool traced = trace.wanted() && rep
                                  && std::none_of(
                                      specs.begin(), specs.end(),
                                      [](const CaseSpec &s) {
                                          return s.traced;
                                      });
                    bool sampled = stats.wanted() && rep
                                   && std::none_of(
                                       specs.begin(), specs.end(),
                                       [](const CaseSpec &s) {
                                           return s.sampled;
                                       });
                    bool snapped = snapshot.wanted() && rep
                                   && std::none_of(
                                       specs.begin(), specs.end(),
                                       [](const CaseSpec &s) {
                                           return s.snapped;
                                       });
                    specs.push_back(
                        {p, tf, tau, n, k, traced, sampled, snapped});
                }
            }
        }
    }

    std::vector<std::function<CaseResult()>> tasks;
    for (const CaseSpec &spec : specs)
        tasks.push_back(
            [&spec, &trace, &stats, &snapshot] {
                return runCase(spec, trace, stats, snapshot);
            });
    auto results = sim::sweep<CaseResult>(tasks, jobs);

    std::size_t idx = 0;
    for (unsigned tau : taus) {
        for (std::size_t tf : tfs) {
            TextTable t(strfmt("Tf = %zu, tau = %u", tf, tau));
            t.header({"P", "N", "K=40", "K=100", "K=300",
                      quick ? "K=300" : "K=1000", "bound(K->inf)"});
            for (unsigned p : cells) {
                std::size_t n = analytic::paperTileN(p, tf);
                std::vector<std::string> row = {strfmt("%u", p),
                                                strfmt("%zu", n)};
                for ([[maybe_unused]] std::size_t k : ks) {
                    const CaseSpec &spec = specs[idx];
                    const CaseResult &res = results[idx];
                    ++idx;
                    json.record(
                        strfmt("matupdate_P%u_Tf%zu_tau%u_K%zu",
                               spec.p, spec.tf, spec.tau, spec.k),
                        res.cycles, 2.0 * res.r,
                        res.r / double(spec.p),
                        {{"ma_per_cycle", res.maPerCycle},
                         {"sim_rate", simRate(res.cycles, res.wall)}});
                    row.push_back(strfmt("%.3f", res.r));
                }
                row.push_back(strfmt(
                    "%.2f",
                    analytic::matUpdateAsymptoticBound(p, tau, n)));
                t.row(row);
            }
            std::printf("%s\n", t.render().c_str());
        }
    }
    std::printf("Anchor check (paper): tau=4, Tf=512, P=16 is host-"
                "bandwidth limited at 16*484/704 = 11.0 MA/cycle;\n"
                "all other configurations approach P multiply-adds "
                "per cycle as K grows, less the fig. 5 reload\n"
                "overhead (B column load + reby rotation per "
                "iteration).\n");
    return 0;
}
