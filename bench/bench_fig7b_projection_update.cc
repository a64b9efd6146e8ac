// Figure 7(b): time to update the local interpretation ℘ during ancestor
// projection — the dominant phase of Fig 7(a) per the paper, linear in
// the number of objects and quadratic in the per-object OPF size.
//
// The second table measures the ε-memo cache on the same sweep: run one
// exists-query through the QueryEngine, apply a single OPF update, and
// re-run it. With --cache=on (default) the re-query recomputes only the
// dirty ancestor spine (O(depth) ε evaluations); with --cache=off both
// passes recompute every path ancestor. The table prints both the
// epsilon_recomputed counters and the two batches' wall times
// (BatchStats::wall_seconds), so an on/off pair of runs is the memo's
// end-to-end ablation.
//
// Usage: bench_fig7b_projection_update [--seed=S] [--threads=N]
//        [--cache=on|off] [--trace=PATH] [--metrics=PATH]
#include <cstdio>
#include <memory>

#include "fig7_common.h"
#include "prob/opf.h"
#include "query/engine.h"

namespace pxml {
namespace bench {
namespace {

/// Deepest non-leaf (generator ids grow with depth), i.e. the update site
/// with the longest ancestor spine.
ObjectId DeepestNonLeaf(const ProbabilisticInstance& inst) {
  ObjectId best = inst.weak().root();
  for (ObjectId o = 0; o < inst.weak().num_objects(); ++o) {
    if (inst.weak().Present(o) && !inst.weak().IsLeaf(o)) best = o;
  }
  return best;
}

/// A fresh independent OPF over o's potential children.
std::unique_ptr<Opf> FreshOpf(const ProbabilisticInstance& inst, ObjectId o,
                              Rng& rng) {
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
    opf->AddChild(child, 0.3 + 0.6 * rng.NextDouble());
  }
  return opf;
}

void RunCacheSweep(const BenchFlags& flags, obs::TraceSession* trace) {
  std::printf(
      "\n# incremental re-query after one OPF update (cache=%s, "
      "threads=%zu)\n"
      "# eps_cold / eps_requery = per-object ε evaluations before/after;\n"
      "# cold_ms / requery_ms = wall time of the two batches\n",
      flags.cache ? "on" : "off", flags.threads);
  std::printf("%-3s %2s %2s %9s %10s %12s %8s %10s %11s\n", "lab", "b", "d",
              "objects", "eps_cold", "eps_requery", "ratio", "cold_ms",
              "requery_ms");
  Rng rng(flags.seed ^ 0xCAC4E);
  for (const SweepPoint& point : Fig7Sweep(/*max_objects=*/310000)) {
    GeneratorConfig config;
    config.depth = point.depth;
    config.branching = point.branching;
    config.labeling = point.scheme;
    config.seed = flags.seed + point.depth * 7919 + point.branching;
    auto inst = GenerateBalancedTree(config);
    BenchCheck(inst.status(), "generate");
    auto path = GenerateAcceptedPath(*inst, rng);
    BenchCheck(path.status(), "path");

    BatchOptions options;
    options.threads = flags.threads;
    options.cache = flags.cache;
    QueryEngine engine(std::move(inst).ValueOrDie(), options);
    const std::vector<BatchQuery> queries = {BatchQuery::Exists(*path)};

    BatchStats cold;
    BenchCheck(engine.Run(queries, &cold, trace).status(), "cold run");
    ObjectId site = DeepestNonLeaf(engine.instance());
    BenchCheck(engine.UpdateOpf(site, FreshOpf(engine.instance(), site, rng)),
               "update");
    BatchStats warm;
    BenchCheck(engine.Run(queries, &warm, trace).status(), "re-query");

    double ratio = warm.epsilon_recomputed > 0
                       ? static_cast<double>(cold.epsilon_recomputed) /
                             static_cast<double>(warm.epsilon_recomputed)
                       : 0.0;
    std::printf("%-3s %2u %2u %9zu %10llu %12llu %8.1f %10.3f %11.3f\n",
                SchemeName(point.scheme), point.branching, point.depth,
                engine.instance().weak().num_objects(),
                static_cast<unsigned long long>(cold.epsilon_recomputed),
                static_cast<unsigned long long>(warm.epsilon_recomputed),
                ratio, cold.wall_seconds * 1e3, warm.wall_seconds * 1e3);
    std::fflush(stdout);
  }
}

int Main(int argc, char** argv) {
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 997;
  BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  ObsOutputs obs(flags);
  std::printf(
      "# Figure 7(b): local-interpretation (℘) update time of ancestor "
      "projection\n"
      "# update_ms is the headline series; entries = OPF rows read\n");
  std::printf("%-3s %2s %2s %9s %10s %4s %12s %12s\n", "lab", "b", "d",
              "objects", "opf_rows", "q", "update_ms", "update_frac");
  for (const SweepPoint& point : Fig7Sweep(/*max_objects=*/310000)) {
    ProjectionRow row =
        RunProjectionPoint(point, flags.seed, OpfStyle::kExplicitTable,
                           /*frozen=*/false, obs.session());
    double frac = row.total_ms > 0 ? row.update_ms / row.total_ms : 0.0;
    std::printf("%-3s %2u %2u %9zu %10zu %4d %12.3f %12.3f\n",
                SchemeName(point.scheme), point.branching, point.depth,
                row.objects, row.opf_entries, row.queries, row.update_ms,
                frac);
    std::fflush(stdout);
  }
  RunCacheSweep(flags, obs.session());
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pxml

int main(int argc, char** argv) { return pxml::bench::Main(argc, argv); }
