// Layout autotuning: search the parameterized pass-pipeline space for
// the configuration that minimizes measured I-cache energy (or ED
// product) on this machine's suite, and report what the search found.
//
// Three read-outs:
//   1. the objective trajectory — every candidate the coordinate
//      descent priced, in order, with the incumbent moves marked;
//   2. the per-workload table — each workload's best evaluated spec,
//      its normalized objective, and the dominant-block recommended
//      WP-area (smallest page multiple covering >= 90% of the placed
//      dynamic profile under that workload's best layout);
//   3. the margin of the best-found pipeline over the paper's
//      heaviest-first ordering at the same area.
// The same data lands in WP_JSON under a top-level "autotune" section
// (schema in EXPERIMENTS.md). Deterministic from WP_SEED: the same
// seed, budget and objective replay the identical search byte-for-byte.
//
// Knobs on top of the common bench set: WP_TUNE_EVALS (candidate
// budget, default 24) and WP_TUNE_OBJECTIVE (icache_energy |
// ed_product).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "driver/autotune.hpp"
#include "support/json.hpp"

int main() {
  using namespace wp;
  // Env parsing first: a bad WP_TUNE_* kills the run before the suite
  // spends minutes preparing workloads.
  const driver::AutotuneConfig config = driver::AutotuneConfig::fromEnv();

  bench::printHeader(
      "Layout autotuning: measured-energy search over the pass pipeline\n"
      "32KB 32-way I-cache, 1KB way-placement area, suite average",
      "beyond Section 3: is heaviest-first the right ordering?");

  auto suite = bench::makeSuite();
  const cache::CacheGeometry icache = bench::initialICache();
  constexpr u32 kArea = 1024;

  std::cout << "objective " << config.objectiveName() << ", budget "
            << config.evals << " evals\n\n";

  const driver::AutotuneResult r =
      driver::autotuneLayout(suite, icache, kArea, config);

  std::cout << "objective trajectory (coordinate descent from "
            << r.start_spec << "):\n";
  TextTable traj;
  traj.header({"eval", "candidate spec", "objective (avg)", ""});
  for (const driver::AutotuneStep& step : r.trajectory) {
    traj.row({std::to_string(step.eval), step.spec,
              bench::cellNum(step.objective, 4),
              step.improved ? "<- incumbent" : ""});
  }
  traj.print(std::cout);
  std::cout << (r.budget_exhausted ? "budget exhausted" : "converged")
            << " after " << r.evals_used << " evaluations\n\n";

  std::cout << "per-workload best and dominant-block WP-area "
               "recommendation:\n";
  TextTable per;
  per.header({"workload", "best spec", "objective", "rec. WP area",
              "coverage"});
  for (const driver::AutotuneWorkloadBest& wb : r.per_workload) {
    if (wb.quarantined) {
      per.row({wb.workload, "QUAR", "QUAR", "QUAR", "QUAR"});
      continue;
    }
    per.row({wb.workload, wb.spec, fmt(wb.objective, 4),
             std::to_string(wb.recommended_wp_bytes) + " B",
             fmtPct(wb.recommended_coverage, 1)});
  }
  per.print(std::cout);

  if (r.start.included > 0 && r.best.included > 0) {
    const double margin = r.start.mean - r.best.mean;
    std::cout << "\nbest found: " << r.best_spec << " at "
              << bench::cellNum(r.best, 4) << " vs "
              << bench::cellNum(r.start, 4) << " for the paper's "
              << r.start_spec << " — margin " << fmt(margin * 100.0, 2)
              << " pp (descent only accepts strict improvements, so the\n"
                 "margin is never negative; 0.00 pp means heaviest-first "
                 "is already optimal in the searched space).\n";
  } else {
    std::cout << "\nQUAR: the objective could not be measured (every "
                 "workload quarantined).\n";
  }

  // The machine-readable mirror of the three read-outs above.
  std::vector<std::string> trajectory;
  for (const driver::AutotuneStep& step : r.trajectory) {
    trajectory.push_back(JsonLine()
                             .num("eval", step.eval)
                             .str("spec", step.spec)
                             .num("objective", step.objective.mean)
                             .num("excluded", step.objective.excluded)
                             .boolean("improved", step.improved)
                             .render());
  }
  std::vector<std::string> workloads;
  for (const driver::AutotuneWorkloadBest& wb : r.per_workload) {
    JsonLine w = JsonLine().str("name", wb.workload);
    if (wb.quarantined) {
      w.boolean("quarantined", true);
    } else {
      w.str("spec", wb.spec)
          .num("objective", wb.objective)
          .num("recommended_wp_bytes", wb.recommended_wp_bytes)
          .num("recommended_coverage", wb.recommended_coverage);
    }
    workloads.push_back(w.render());
  }
  const auto point = [](const std::string& spec, double objective) {
    return JsonLine().str("spec", spec).num("objective", objective).render();
  };
  JsonLine js(4);
  js.str("objective", config.objectiveName())
      .num("budget", config.evals)
      .num("evals_used", r.evals_used)
      .boolean("budget_exhausted", r.budget_exhausted)
      .num("wp_area_bytes", kArea)
      .raw("start", point(r.start_spec, r.start.mean))
      .raw("best", point(r.best_spec, r.best.mean))
      .num("margin", r.start.mean - r.best.mean)
      .raw("trajectory", jsonList(trajectory, 6))
      .raw("workloads", jsonList(workloads, 6));
  suite.addJsonSection("autotune", js.render());

  return bench::finish(suite);
}
