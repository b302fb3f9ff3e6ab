// Measured-energy layout autotuning (ROADMAP "Layout autotuning").
//
// Nobre et al. ("Compiler Phase Ordering as an Orthogonal Approach for
// Reducing Energy Consumption") show that searching over pass
// parameters and ordering beats any fixed pipeline on energy. PR 9's
// parameterized layout stack makes that search almost free to host: a
// candidate configuration is just a strategy spec string, a spec is an
// ordinary SweepExecutor cell (supervised, memoized, checkpointed,
// store-served), and the measured objective is the suite-average
// normalized I-cache energy (or ED product) the executor already
// computes.
//
// The search is seeded coordinate descent — deterministic from the
// suite seed (WP_SEED), including its axis exploration order, so the
// same seed and budget replay the identical trajectory byte-for-byte.
// Each axis scan prices its candidates as one parallel batch across
// the executor's pool.
//
// Environment knobs (parsed strictly; WP_TUNE_EVALS through
// envUnsigned, like every numeric knob):
//   WP_TUNE_EVALS      candidate-evaluation budget in [1, 100000]
//                      (default 24); one eval = one suite-wide pricing
//                      of one new spec
//   WP_TUNE_OBJECTIVE  "icache_energy" (default) or "ed_product"
#pragma once

#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace wp::driver {

struct AutotuneConfig {
  /// Maximum number of distinct candidate specs to price (including
  /// the starting point). The search also stops early when a full
  /// round over every axis improves nothing.
  unsigned evals = 24;
  enum class Objective { kIcacheEnergy, kEdProduct };
  Objective objective = Objective::kIcacheEnergy;

  [[nodiscard]] const char* objectiveName() const {
    return objective == Objective::kIcacheEnergy ? "icache_energy"
                                                 : "ed_product";
  }

  /// WP_TUNE_EVALS / WP_TUNE_OBJECTIVE, strictly parsed: garbage exits
  /// with status 1 listing the valid values.
  [[nodiscard]] static AutotuneConfig fromEnv();
};

/// One priced candidate, in evaluation order.
struct AutotuneStep {
  unsigned eval = 0;       ///< 1-based evaluation index
  std::string spec;        ///< canonical candidate spec
  SweepExecutor::SuiteAverage objective;  ///< suite-average metric
  bool improved = false;   ///< became the incumbent when priced
};

/// Per-workload read-out of the search (no extra simulations: every
/// field derives from cells the search already priced).
struct AutotuneWorkloadBest {
  std::string workload;
  std::string spec;        ///< best evaluated spec for this workload
  double objective = 0.0;  ///< its normalized metric on this workload
  bool quarantined = false;  ///< no candidate produced a usable cell
  /// Dominant-block-guided WP-area recommendation: the smallest
  /// page-multiple area that covers >= 90% of the profiled dynamic
  /// instructions under this workload's best layout (Patel & Rajawat's
  /// dominant-block steering). Falls back to the whole (page-rounded)
  /// code size when the profile never concentrates; 0 when the
  /// workload carries no usable profile at all.
  u32 recommended_wp_bytes = 0;
  double recommended_coverage = 0.0;  ///< coverage at that area
};

struct AutotuneResult {
  std::string start_spec;  ///< the incumbent the search started from
  std::string best_spec;   ///< best spec found (canonical)
  SweepExecutor::SuiteAverage start;  ///< objective at start_spec
  SweepExecutor::SuiteAverage best;   ///< objective at best_spec
  unsigned evals_used = 0;
  bool budget_exhausted = false;
  std::vector<AutotuneStep> trajectory;       ///< every priced candidate
  std::vector<AutotuneWorkloadBest> per_workload;  ///< suite order
};

/// A dominant-block WP-area recommendation (Patel & Rajawat): the
/// smallest page-multiple area covering >= 90% of the profiled dynamic
/// instructions under one layout. bytes == 0 means the workload has no
/// usable profile to recommend from.
struct WpAreaRecommendation {
  u32 bytes = 0;
  double coverage = 0.0;
};

/// Computes the recommendation for @p prepared under layout @p spec
/// (any resolvable strategy spec; throws SimError on an unresolvable
/// one, like PreparedWorkload::layoutFor). Pure read-out of the layout
/// report — no simulation. Shared by the autotune bench's per-workload
/// table and the sweep service's `recommend` op.
[[nodiscard]] WpAreaRecommendation recommendWpArea(
    const PreparedWorkload& prepared, const std::string& spec);

/// Runs the coordinate-descent search over the layout PassParams space
/// on @p suite at (@p icache, way-placement area @p wp_area_bytes),
/// starting from the paper's `way_placement` defaults. Deterministic
/// from the suite's seed and @p config; candidates are priced as
/// parallel supervised cells (quarantined candidates score +inf and
/// can never become the incumbent). Since descent only ever accepts
/// strict improvements, the returned best always beats or matches the
/// starting point on the configured objective.
[[nodiscard]] AutotuneResult autotuneLayout(SweepExecutor& suite,
                                            const cache::CacheGeometry& icache,
                                            u32 wp_area_bytes,
                                            const AutotuneConfig& config);

}  // namespace wp::driver
