// Layout strategies: the pluggable ChainOrdering stage of the layout
// pass pipeline (ChainFormation → ChainOrdering → Emission).
//
// The paper's compiler contribution (§3) is one ordering — concatenate
// the must-respect chains heaviest-first — but the interesting
// scientific question for this reproduction is how much of the energy
// saving depends on the *quality* of the hot-code ordering feeding the
// way-placement area. So orderings are first-class, registered by name
// and selectable per run (`SchemeSpec::layout`, `WP_LAYOUT=<name>`):
//
//   original       authored block order (the baseline binary),
//   way_placement  the paper's heaviest-first chain concatenation,
//   random         seeded shuffle of all blocks (layout ablation floor),
//   call_distance  Codestitcher-style distance-bounded collocation:
//                  merges a callee's hot chain behind its heaviest call
//                  site whenever the merged cluster stays within a
//                  configurable reach (Lavaee et al.),
//   exttsp         greedy chain concatenation maximizing the ExtTSP
//                  score, which values short forward jumps above raw
//                  fall-through count (Newell & Pupyrev),
//   autotuned      the measured-energy autotuner's best-found pipeline
//                  over the full suite (see driver/autotune.hpp).
//
// Since PR 9 every ordering knob is data, not a compile-time constant:
// a strategy is a (name, PassParams) pair, where PassParams carries the
// ordering-pass sequence and every per-pass parameter (hotness
// threshold, collocation reach, ExtTSP windows/weights). Specs have a
// canonical string form — `name` when the params are the registered
// defaults, `name{key=value,...}` otherwise — that round-trips through
// resolveStrategy() and is what flows into SweepExecutor cell keys,
// checkpoint records and the result store, so tuned cells memoize and
// resume exactly like default ones (Nobre et al.'s phase-ordering
// search needs nothing more than this).
//
// Every pipeline run emits a LayoutReport — chains formed, fall-through
// repairs the linker had to insert, and the placed dynamic-instruction
// profile — so sweeps can explain *why* a layout wins, not just that it
// does. Reports flow through RunResult into WP_JSON / WP_TRACE.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "layout/layout.hpp"

namespace wp::layout {

/// What one pass-pipeline run did to a module. Host-side observability:
/// nothing here feeds back into the simulated machine.
struct LayoutReport {
  std::string strategy;  ///< canonical spec of the ordering that ran
  u64 chains = 0;        ///< must-respect chains formed (stage 1)
  u64 repairs = 0;       ///< fall-through branches link() materialized

  /// Placement of every block: where it landed and how hot it is.
  struct Span {
    u32 addr = 0;   ///< placed address of the block's first instruction
    u32 insts = 0;  ///< authored instructions (repairs excluded)
    u64 exec = 0;   ///< profiled entry count of the block
  };
  std::vector<Span> spans;  ///< indexed by block id

  /// Profiled dynamic instructions over all spans (exec × insts).
  [[nodiscard]] u64 dynamicInstructions() const;

  /// Fraction of profiled dynamic instructions whose placed address
  /// falls within the first @p area_bytes of the code segment — i.e.
  /// inside a way-placement area of that size. Blocks straddling the
  /// boundary count instruction-by-instruction. 0 when the module
  /// carries no profile.
  [[nodiscard]] double coverage(u32 area_bytes) const;
};

/// A linked image plus the report of the pipeline run that produced it.
struct LayoutResult {
  mem::Image image;
  LayoutReport report;
};

/// Every tunable of the ChainOrdering stage. The registered strategies
/// are just named defaults over this struct; the autotuner searches and
/// a spec's `{key=value,...}` suffix overrides the same fields. Field
/// defaults are the historical compile-time constants, so a
/// default-constructed PassParams (plus a pass list) reproduces the
/// pre-parameterization images bit-for-bit.
struct PassParams {
  /// The ordering-pass sequence, applied left to right over the chain
  /// list (see passes::orderingPasses() for the valid names). Composing
  /// passes is meaningful: e.g. {"call_distance", "way_placement"}
  /// collocates call clusters first, then sorts the clusters
  /// heaviest-first.
  std::vector<std::string> passes;
  /// ChainFormation hotness threshold: chains whose weight (profiled
  /// dynamic instructions) is below this skip the ordering passes
  /// entirely and are appended behind the placed code in formation
  /// order. 0 = every chain participates (the historical behavior).
  u64 chain_hot_threshold = 0;
  /// call_distance: byte budget a merged collocation cluster must stay
  /// within (Codestitcher's distance bound).
  u32 call_reach_bytes = 4096;
  /// exttsp: forward/backward jump windows in bytes, and the credit a
  /// short non-fall-through jump earns relative to a fall-through.
  u32 tsp_forward_bytes = 1024;
  u32 tsp_backward_bytes = 640;
  double tsp_forward_weight = 0.1;
  double tsp_backward_weight = 0.1;

  bool operator==(const PassParams&) const = default;
};

/// One registered ChainOrdering: a name bound to default PassParams.
/// The ordering passes themselves live in passes/ (see
/// passes::OrderingPass); a strategy is complete configuration, not
/// code.
struct LayoutStrategy {
  std::string name;     ///< canonical registry name (the WP_LAYOUT value)
  std::string alias;    ///< accepted legacy spelling ("" = none)
  std::string summary;  ///< one-line description for --help style output
  std::string source;   ///< the paper the ordering comes from
  /// True for orderings that are meaningless without block exec counts;
  /// on an unusable training profile these fall back to the original
  /// layout (a bad profile costs energy, never correctness). Always
  /// equals "any pass in params.passes needs a profile".
  bool needs_profile = false;
  PassParams params;    ///< registered defaults for this strategy
};

/// A fully resolved ordering configuration: a registered base strategy
/// plus (possibly overridden) params. This — not LayoutStrategy — is
/// what runs flow through: SchemeSpec::layout strings resolve to one,
/// and its canonical() form is cell-key/checkpoint/store material.
struct StrategySpec {
  std::string name;  ///< canonical base-strategy name
  /// Derived from the pass list (any pass that needs a profile).
  bool needs_profile = false;
  PassParams params;

  bool operator==(const StrategySpec&) const = default;

  /// Canonical string form: the bare base name when params equal the
  /// registered defaults, else `name{key=value,...}` listing exactly
  /// the overridden keys in a fixed key order (pass lists join with
  /// '+', doubles print shortest-round-trip). resolveStrategy() of the
  /// result reproduces this spec exactly, and equal specs — however
  /// they were written — canonicalize to equal strings, which is why
  /// cell keys and digests may use it.
  [[nodiscard]] std::string canonical() const;
};

/// All registered strategies, in registration order (stable across runs;
/// `original` is always first).
[[nodiscard]] const std::vector<const LayoutStrategy*>& strategies();

/// Canonical names, in registration order.
[[nodiscard]] std::vector<std::string> strategyNames();

/// Looks @p name up by canonical name or alias; nullptr when unknown.
/// Exact names only — spec strings with a `{...}` suffix go through
/// resolveStrategy().
[[nodiscard]] const LayoutStrategy* findStrategy(std::string_view name);

/// findStrategy or a SimError naming the valid strategies.
[[nodiscard]] const LayoutStrategy& parseStrategy(std::string_view name);

/// Parses a strategy spec string — `name` or `name{key=value,...}`
/// (names and aliases as in findStrategy; keys are the PassParams
/// fields; pass lists join with '+') — into a resolved StrategySpec.
/// Unknown names, unknown keys and malformed values throw SimError
/// listing the valid alternatives.
[[nodiscard]] StrategySpec resolveStrategy(std::string_view spec);

/// The spec of a registered strategy at its default params.
[[nodiscard]] StrategySpec specOf(const LayoutStrategy& strategy);

/// The strategy way-placement runs use when WP_LAYOUT is unset.
[[nodiscard]] const std::string& defaultStrategyName();

/// Layout spec from WP_LAYOUT — a name or `name{key=value,...}`, as in
/// resolveStrategy() — strictly parsed in the WP_SEED/WP_JOBS style:
/// unset or empty means defaultStrategyName(), and garbage prints the
/// valid alternatives and exits with status 1 instead of silently
/// running the wrong experiment. Returns the canonical spec string.
[[nodiscard]] std::string strategyFromEnv();

/// The ChainOrdering stage alone: the block placement order the
/// pipeline would emit for @p spec (exposed for tests and tools; the
/// returned order is a permutation of every block id).
[[nodiscard]] std::vector<u32> orderBlocks(const ir::Module& module,
                                           const StrategySpec& spec,
                                           u64 seed = 0);

/// Runs the full pass pipeline: ChainFormation over @p module, the
/// spec's hot/cold split and ordering-pass sequence, then Emission
/// (fall-through repair + relocation + image encode). @p seed only
/// affects seeded orderings.
[[nodiscard]] LayoutResult runPipeline(const ir::Module& module,
                                       const StrategySpec& spec,
                                       u64 seed = 0);

/// runPipeline after resolveStrategy(@p spec).
[[nodiscard]] LayoutResult runPipeline(const ir::Module& module,
                                       std::string_view spec, u64 seed = 0);

/// runPipeline at a registered strategy's default params.
[[nodiscard]] LayoutResult runPipeline(const ir::Module& module,
                                       const LayoutStrategy& strategy,
                                       u64 seed = 0);

/// Convenience for callers that only need the linked image.
[[nodiscard]] inline mem::Image layoutImage(const ir::Module& module,
                                            std::string_view spec,
                                            u64 seed = 0) {
  return runPipeline(module, spec, seed).image;
}

}  // namespace wp::layout
