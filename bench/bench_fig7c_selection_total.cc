// Figure 7(c): total query processing time of selection (object
// conditions p = o) over balanced trees of 100..100000 objects. The
// paper's finding: the ℘ update touches only the ancestor chain
// (< 1 ms), so writing the (structurally unchanged) result dominates.
//
// --max-objects=N caps the sweep; --json=PATH writes machine-readable
// rows; --trace=PATH / --metrics=PATH export the observability layer's
// span tree / registry snapshot (DESIGN.md §10).
#include <cstdio>

#include "fig7_common.h"

int main(int argc, char** argv) {
  using namespace pxml::bench;
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 4242;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  const std::size_t max_objects =
      flags.max_objects != 0 ? flags.max_objects : 100000;
  JsonLog json("fig7c_selection_total", flags);
  ObsOutputs obs(flags);
  std::printf(
      "# Figure 7(c): total selection query time\n"
      "# check+locate+copy+update+write; update touches only `depth` "
      "objects\n");
  std::printf("%-3s %2s %2s %9s %10s %4s %10s %9s %9s %9s %9s %9s\n", "lab",
              "b", "d", "objects", "opf_rows", "q", "total_ms", "check_ms",
              "locate", "copy_ms", "update", "write");
  for (const SweepPoint& point : Fig7Sweep(max_objects)) {
    SelectionRow row = RunSelectionPoint(point, flags.seed, obs.session());
    std::printf(
        "%-3s %2u %2u %9zu %10zu %4d %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
        SchemeName(point.scheme), point.branching, point.depth, row.objects,
        row.opf_entries, row.queries, row.total_ms, row.check_ms,
        row.locate_ms, row.copy_ms, row.update_ms, row.write_ms);
    std::fflush(stdout);
    json.NextRow();
    json.Str("labeling", SchemeName(point.scheme));
    json.Int("branching", point.branching);
    json.Int("depth", point.depth);
    json.Int("objects", row.objects);
    json.Int("opf_rows", row.opf_entries);
    json.Int("queries", static_cast<std::uint64_t>(row.queries));
    json.Num("total_ms", row.total_ms);
    json.Num("check_ms", row.check_ms);
    json.Num("locate_ms", row.locate_ms);
    json.Num("copy_ms", row.copy_ms);
    json.Num("update_ms", row.update_ms);
    json.Num("write_ms", row.write_ms);
  }
  json.Write();
  obs.Finish();
  return 0;
}
