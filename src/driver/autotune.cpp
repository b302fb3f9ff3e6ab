// Seeded coordinate descent over the layout PassParams space.
//
// The search state is one incumbent StrategySpec (starting at the
// paper's `way_placement` defaults). Each round walks the parameter
// axes in a seed-shuffled order; each axis prices every alternative
// value as one parallel batch of supervised cells and moves the
// incumbent to the best strict improvement. The search ends when a
// full round improves nothing (converged) or the WP_TUNE_EVALS budget
// is spent. Everything is deterministic from (suite seed, budget,
// objective): candidate sets, batch order, tie-breaks (strict-less
// keeps the earlier candidate) and therefore the whole trajectory.
#include "driver/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>

#include "mem/memory.hpp"
#include "support/ensure.hpp"
#include "support/number.hpp"
#include "support/rng.hpp"

namespace wp::driver {

AutotuneConfig AutotuneConfig::fromEnv() {
  AutotuneConfig c;
  c.evals = static_cast<unsigned>(envUnsigned(
      "WP_TUNE_EVALS", c.evals, 1, 100000, "evaluation budget"));
  const char* obj = std::getenv("WP_TUNE_OBJECTIVE");
  if (obj != nullptr && *obj != '\0') {
    if (std::strcmp(obj, "icache_energy") == 0) {
      c.objective = Objective::kIcacheEnergy;
    } else if (std::strcmp(obj, "ed_product") == 0) {
      c.objective = Objective::kEdProduct;
    } else {
      std::fprintf(stderr,
                   "error: WP_TUNE_OBJECTIVE='%s' is not a valid objective "
                   "(expected 'icache_energy' or 'ed_product')\n",
                   obj);
      std::exit(1);
    }
  }
  return c;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Dominant-block coverage target for the WP-area recommendation.
constexpr double kDominantCoverage = 0.9;

/// The search space: one entry per coordinate axis. Values are spaced
/// a factor apart around the historical defaults — coordinate descent
/// needs a ladder to climb, not a fine grid.
const std::vector<std::vector<std::string>>& passSequences() {
  static const std::vector<std::vector<std::string>> kSeqs = {
      {"way_placement"},
      {"call_distance"},
      {"exttsp"},
      {"call_distance", "way_placement"},
      {"exttsp", "way_placement"},
  };
  return kSeqs;
}
constexpr u64 kHotThresholds[] = {0, 64, 1024, 16384};
constexpr u32 kReachBytes[] = {1024, 2048, 4096, 8192, 16384};
constexpr u32 kForwardBytes[] = {256, 512, 1024, 2048};
constexpr u32 kBackwardBytes[] = {160, 320, 640, 1280};
constexpr double kJumpWeights[] = {0.05, 0.1, 0.2};
constexpr unsigned kAxes = 7;

/// Candidate params for one axis around the incumbent (the incumbent's
/// own value included — it dedups away by canonical string).
std::vector<layout::PassParams> axisCandidates(const layout::PassParams& at,
                                               unsigned axis) {
  std::vector<layout::PassParams> out;
  const auto push = [&](auto&& set) {
    layout::PassParams p = at;
    set(p);
    out.push_back(std::move(p));
  };
  switch (axis) {
    case 0:
      for (const auto& seq : passSequences()) {
        push([&](layout::PassParams& p) { p.passes = seq; });
      }
      break;
    case 1:
      for (const u64 v : kHotThresholds) {
        push([&](layout::PassParams& p) { p.chain_hot_threshold = v; });
      }
      break;
    case 2:
      for (const u32 v : kReachBytes) {
        push([&](layout::PassParams& p) { p.call_reach_bytes = v; });
      }
      break;
    case 3:
      for (const u32 v : kForwardBytes) {
        push([&](layout::PassParams& p) { p.tsp_forward_bytes = v; });
      }
      break;
    case 4:
      for (const u32 v : kBackwardBytes) {
        push([&](layout::PassParams& p) { p.tsp_backward_bytes = v; });
      }
      break;
    case 5:
      for (const double v : kJumpWeights) {
        push([&](layout::PassParams& p) { p.tsp_forward_weight = v; });
      }
      break;
    case 6:
      for (const double v : kJumpWeights) {
        push([&](layout::PassParams& p) { p.tsp_backward_weight = v; });
      }
      break;
    default:
      WP_UNREACHABLE("bad autotune axis");
  }
  return out;
}

double valueOf(const SweepExecutor::SuiteAverage& a) {
  // A fully quarantined candidate has no measured objective: +inf keeps
  // it from ever becoming the incumbent without aborting the search.
  return a.included == 0 ? kInf : a.mean;
}

/// Rounds @p bytes up to the next page multiple (at least one page).
u32 pageCeil(u64 bytes) {
  const u64 pages = (bytes + mem::kPageBytes - 1) / mem::kPageBytes;
  return static_cast<u32>(std::max<u64>(1, pages) * mem::kPageBytes);
}

}  // namespace

WpAreaRecommendation recommendWpArea(const PreparedWorkload& prepared,
                                     const std::string& spec) {
  WpAreaRecommendation rec;
  const layout::LayoutReport& report = prepared.layoutFor(spec).report;
  if (report.dynamicInstructions() == 0) return rec;  // nothing to steer by
  u64 code_end = 0;
  for (const layout::LayoutReport::Span& s : report.spans) {
    code_end = std::max(code_end, static_cast<u64>(s.addr) +
                                      static_cast<u64>(s.insts) * 4);
  }
  const u32 code_limit = pageCeil(code_end - mem::kCodeBase);
  u32 area = mem::kPageBytes;
  while (area < code_limit && report.coverage(area) < kDominantCoverage) {
    area += mem::kPageBytes;
  }
  rec.bytes = area;
  rec.coverage = report.coverage(area);
  return rec;
}

AutotuneResult autotuneLayout(SweepExecutor& suite,
                              const cache::CacheGeometry& icache,
                              u32 wp_area_bytes,
                              const AutotuneConfig& config) {
  const u64 seed = suite.runner().seed();
  const auto metric = [objective = config.objective](const Normalized& n) {
    return objective == AutotuneConfig::Objective::kIcacheEnergy
               ? n.icache_energy
               : n.ed_product;
  };
  const auto cellFor = [&](const std::string& spec) {
    SchemeSpec s;
    s.scheme = cache::Scheme::kWayPlacement;
    s.wp_area_bytes = wp_area_bytes;
    s.layout = spec;
    return s;
  };

  AutotuneResult result;
  std::map<std::string, SweepExecutor::SuiteAverage> evaluated;
  std::vector<std::string> eval_order;

  // Prices every not-yet-evaluated spec of @p specs (in order, up to
  // the remaining budget) as one parallel batch, then appends their
  // trajectory entries in the same order — deterministic at any job
  // count because reads go through the executor's memo.
  const auto evaluateBatch = [&](const std::vector<std::string>& specs) {
    std::vector<std::string> fresh;
    for (const std::string& spec : specs) {
      if (evaluated.count(spec) != 0) continue;
      if (std::find(fresh.begin(), fresh.end(), spec) != fresh.end()) continue;
      if (result.evals_used + fresh.size() >= config.evals) {
        result.budget_exhausted = true;
        break;
      }
      fresh.push_back(spec);
    }
    std::vector<SweepExecutor::Cell> cells;
    cells.reserve(fresh.size());
    for (const std::string& spec : fresh) {
      cells.push_back({icache, cellFor(spec)});
    }
    suite.runAll(cells);
    for (const std::string& spec : fresh) {
      const SweepExecutor::SuiteAverage avg =
          suite.averageNormalizedChecked(icache, cellFor(spec), metric);
      evaluated.emplace(spec, avg);
      eval_order.push_back(spec);
      ++result.evals_used;
      result.trajectory.push_back(
          {result.evals_used, spec, avg, /*improved=*/false});
    }
  };

  // Start at the paper's scheme; descent can only improve on it.
  layout::StrategySpec current =
      layout::resolveStrategy(layout::defaultStrategyName());
  std::string current_str = current.canonical();
  evaluateBatch({current_str});
  result.start_spec = current_str;
  result.start = evaluated.at(current_str);
  double best_value = valueOf(result.start);

  // Axis exploration order is part of the seed's experiment identity.
  unsigned axes[kAxes];
  for (unsigned i = 0; i < kAxes; ++i) axes[i] = i;
  Rng rng(seed ^ 0x74756e65726f756eULL);  // "tuneroun"
  for (unsigned i = kAxes; i > 1; --i) {
    std::swap(axes[i - 1], axes[rng.below(i)]);
  }

  bool improved_this_round = true;
  while (improved_this_round && !result.budget_exhausted) {
    improved_this_round = false;
    for (const unsigned axis : axes) {
      if (result.evals_used >= config.evals) {
        result.budget_exhausted = true;
        break;
      }
      std::vector<std::string> specs;
      for (const layout::PassParams& params : axisCandidates(current.params,
                                                             axis)) {
        layout::StrategySpec candidate;
        candidate.name = current.name;
        candidate.params = params;
        const std::string spec = candidate.canonical();
        if (spec != current_str) specs.push_back(spec);
      }
      evaluateBatch(specs);
      // Move to the axis's best strict improvement, if any. Only
      // freshly priced specs can win: every older spec already lost to
      // some incumbent whose value was >= best_value.
      std::string axis_best;
      for (const std::string& spec : specs) {
        const auto it = evaluated.find(spec);
        if (it == evaluated.end()) continue;  // beyond the budget
        if (valueOf(it->second) < best_value) {
          best_value = valueOf(it->second);
          axis_best = spec;
        }
      }
      if (!axis_best.empty()) {
        current = layout::resolveStrategy(axis_best);
        current_str = current.canonical();
        improved_this_round = true;
        for (AutotuneStep& step : result.trajectory) {
          if (step.spec == axis_best) step.improved = true;
        }
      }
    }
  }

  result.best_spec = current_str;
  result.best = evaluated.at(current_str);

  // Per-workload read-out over the cells the search already priced.
  for (const PreparedWorkload& p : suite.prepared()) {
    AutotuneWorkloadBest wb;
    wb.workload = p.name;
    double best = kInf;
    for (const std::string& spec : eval_order) {
      const SchemeSpec cell = cellFor(spec);
      const SweepExecutor::CellView cv = suite.tryRun(p, icache, cell);
      const SweepExecutor::CellView bv =
          suite.tryRun(p, icache, SchemeSpec::baselineFor(cell));
      if (cv.result == nullptr || bv.result == nullptr) continue;
      const double v = metric(normalize(*cv.result, *bv.result, p.name));
      if (v < best) {
        best = v;
        wb.spec = spec;
        wb.objective = v;
      }
    }
    if (best == kInf) {
      wb.quarantined = true;
    } else {
      // Dominant-block area recommendation from the winning layout's
      // report.
      const WpAreaRecommendation rec = recommendWpArea(p, wb.spec);
      wb.recommended_wp_bytes = rec.bytes;
      wb.recommended_coverage = rec.coverage;
    }
    result.per_workload.push_back(std::move(wb));
  }
  return result;
}

}  // namespace wp::driver
