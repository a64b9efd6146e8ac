// Figure 7(a): total query processing time of ancestor projection over
// balanced trees (100 .. ~300k objects, branching 2-8, SL/FR labeling).
//
// Prints one row per sweep point with the same cost decomposition the
// paper uses: copy + locate + structure update + ℘ update + write, plus
// the tree check (check_ms) that AncestorProject runs first.
//
// Flags (beyond the shared ones): --opf=explicit|independent|per-label
// picks the generated OPF representation, --frozen=on runs the
// marginalization pass on FrozenInstance kernels (compiled once per
// instance), --max-objects=N caps the sweep, --json=PATH additionally
// writes machine-readable rows including the representation-sensitive
// work counters (opf_row_ops, entries_materialized, bytes_allocated).
// --trace=PATH records every projection's phase spans as Chrome
// trace-event JSON; --metrics=PATH snapshots the metrics registry at
// exit (see DESIGN.md §10).
#include <cstdio>

#include "fig7_common.h"

int main(int argc, char** argv) {
  using namespace pxml::bench;
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 20260706;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  const std::size_t max_objects =
      flags.max_objects != 0 ? flags.max_objects : 310000;
  JsonLog json("fig7a_projection_total", flags);
  ObsOutputs obs(flags);
  std::printf(
      "# Figure 7(a): total ancestor-projection query time (opf=%s, "
      "frozen=%s)\n"
      "# one row per (labeling, branching, depth); times are ms averaged "
      "over random accepted queries\n",
      OpfStyleName(flags.opf_style), flags.frozen ? "on" : "off");
  std::printf(
      "%-3s %2s %2s %9s %10s %4s %10s %9s %9s %9s %9s %9s %9s %7s\n",
      "lab", "b", "d", "objects", "opf_rows", "q", "total_ms", "copy_ms",
      "check_ms", "locate", "struct", "update", "write", "kept");
  for (const SweepPoint& point : Fig7Sweep(max_objects)) {
    ProjectionRow row = RunProjectionPoint(point, flags.seed, flags.opf_style,
                                           flags.frozen, obs.session());
    std::printf(
        "%-3s %2u %2u %9zu %10zu %4d %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f "
        "%9.3f %7zu\n",
        SchemeName(point.scheme), point.branching, point.depth, row.objects,
        row.opf_entries, row.queries, row.total_ms, row.copy_ms,
        row.check_ms, row.locate_ms, row.structure_ms, row.update_ms, row.write_ms,
        row.kept_objects);
    std::fflush(stdout);
    json.NextRow();
    json.Str("labeling", SchemeName(point.scheme));
    json.Int("branching", point.branching);
    json.Int("depth", point.depth);
    json.Str("opf", OpfStyleName(flags.opf_style));
    json.Int("frozen", flags.frozen ? 1 : 0);
    json.Int("objects", row.objects);
    json.Int("opf_rows", row.opf_entries);
    json.Int("queries", static_cast<std::uint64_t>(row.queries));
    json.Num("total_ms", row.total_ms);
    json.Num("copy_ms", row.copy_ms);
    json.Num("check_ms", row.check_ms);
    json.Num("locate_ms", row.locate_ms);
    json.Num("structure_ms", row.structure_ms);
    json.Num("update_ms", row.update_ms);
    json.Num("write_ms", row.write_ms);
    json.Int("kept_objects", row.kept_objects);
    json.Int("opf_row_ops", row.opf_row_ops);
    json.Int("entries_materialized", row.entries_materialized);
    json.Int("bytes_allocated", row.bytes_allocated);
    json.Int("frozen_passes", row.frozen_passes);
  }
  json.Write();
  obs.Finish();
  return 0;
}
