// The LayoutStrategy registry, strategy-spec parsing and the
// pass-pipeline driver.
//
// Registration is static and ordered: `original` first (the baseline
// every experiment compares against), then the paper's ordering, then
// the ablation floor, then the two literature orderings, then the
// autotuned pipeline. Everything that consumes strategies — SchemeSpec,
// WP_LAYOUT, the ablation bench, the autotuner, the tests — goes
// through this table, so adding an ordering is one pass file plus one
// entry here.
//
// Spec strings (`name` or `name{key=value,...}`) resolve to a
// StrategySpec and canonicalize back to a unique string; that string is
// cell-key, checkpoint and result-store material, which is why
// canonical() elides defaulted keys (keeping every pre-parameterization
// key valid) and prints doubles shortest-round-trip (so equal specs
// canonicalize equal and the string re-parses to the same spec).
#include "layout/strategy.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "layout/passes/passes.hpp"
#include "support/ensure.hpp"
#include "support/number.hpp"

namespace wp::layout {

u64 LayoutReport::dynamicInstructions() const {
  u64 total = 0;
  for (const Span& s : spans) total += s.exec * s.insts;
  return total;
}

double LayoutReport::coverage(u32 area_bytes) const {
  const u64 total = dynamicInstructions();
  if (total == 0) return 0.0;
  const u64 limit = static_cast<u64>(mem::kCodeBase) + area_bytes;
  u64 covered = 0;
  for (const Span& s : spans) {
    if (s.exec == 0 || s.insts == 0) continue;
    u64 inside = 0;
    if (s.addr + static_cast<u64>(s.insts) * 4 <= limit) {
      inside = s.insts;
    } else if (s.addr < limit) {
      inside = (limit - s.addr) / 4;  // straddlers count per instruction
    }
    covered += s.exec * inside;
  }
  return static_cast<double>(covered) / static_cast<double>(total);
}

namespace passes {

const std::vector<const OrderingPass*>& orderingPasses() {
  static const OrderingPass kOriginalPass{"original", false, &passOriginal};
  static const OrderingPass kWayPlacementPass{"way_placement", true,
                                              &passWayPlacement};
  static const OrderingPass kRandomPass{"random", false, &passRandom};
  static const OrderingPass kCallDistancePass{"call_distance", true,
                                              &passCallDistance};
  static const OrderingPass kExtTspPass{"exttsp", true, &passExtTsp};
  static const std::vector<const OrderingPass*> kPasses{
      &kOriginalPass, &kWayPlacementPass, &kRandomPass, &kCallDistancePass,
      &kExtTspPass,
  };
  return kPasses;
}

const OrderingPass* findOrderingPass(std::string_view name) {
  for (const OrderingPass* p : orderingPasses()) {
    if (name == p->name) return p;
  }
  return nullptr;
}

std::string joinedOrderingPassNames() {
  std::string joined;
  for (const OrderingPass* p : orderingPasses()) {
    if (!joined.empty()) joined += ", ";
    joined += p->name;
  }
  return joined;
}

}  // namespace passes

namespace {

PassParams paramsWith(std::vector<std::string> pass_names) {
  PassParams p;
  p.passes = std::move(pass_names);
  return p;
}

/// The autotuner's best-found configuration over the full 23-workload
/// suite (seed 0, 32 KB/32-way, 1 KB WP area, I-cache energy
/// objective, 24-eval budget; bench/autotune_layout reproduces the
/// search). Distance-bounded call collocation at its default 4 KB
/// reach beat the paper's plain heaviest-first ordering by 0.10 pp of
/// baseline I-cache energy (0.4859 vs 0.4869); appending a
/// heaviest-first cluster sort matched but never strictly improved it,
/// so strict-improvement descent kept the single pass.
PassParams autotunedParams() {
  PassParams p;
  p.passes = {"call_distance"};
  return p;
}

}  // namespace

const std::vector<const LayoutStrategy*>& strategies() {
  static const LayoutStrategy kOriginalStrategy{
      "original",
      "",
      "authored block order; the baseline binary",
      "baseline",
      /*needs_profile=*/false,
      paramsWith({"original"}),
  };
  static const LayoutStrategy kWayPlacementStrategy{
      "way_placement",
      "way-placement",  // the spelling the legacy Policy API printed
      "heaviest-first chain concatenation (the paper's ordering)",
      "Jones et al., DATE 2008",
      /*needs_profile=*/true,
      paramsWith({"way_placement"}),
  };
  static const LayoutStrategy kRandomStrategy{
      "random",
      "",
      "seeded shuffle of all blocks; the ablation floor",
      "ablation control",
      /*needs_profile=*/false,
      paramsWith({"random"}),
  };
  static const LayoutStrategy kCallDistanceStrategy{
      "call_distance",
      "",
      "distance-bounded collocation of callees behind hot call sites",
      "Lavaee et al., Codestitcher",
      /*needs_profile=*/true,
      paramsWith({"call_distance"}),
  };
  static const LayoutStrategy kExtTspStrategy{
      "exttsp",
      "",
      "greedy chain concatenation maximizing the ExtTSP score",
      "Newell & Pupyrev, ExtTSP",
      /*needs_profile=*/true,
      paramsWith({"exttsp"}),
  };
  static const LayoutStrategy kAutotunedStrategy{
      "autotuned",
      "",
      "the layout autotuner's best-found pass pipeline",
      "Nobre et al., phase-ordering search",
      /*needs_profile=*/true,
      autotunedParams(),
  };
  static const std::vector<const LayoutStrategy*> kRegistry{
      &kOriginalStrategy,     &kWayPlacementStrategy, &kRandomStrategy,
      &kCallDistanceStrategy, &kExtTspStrategy,       &kAutotunedStrategy,
  };
  return kRegistry;
}

std::vector<std::string> strategyNames() {
  std::vector<std::string> names;
  names.reserve(strategies().size());
  for (const LayoutStrategy* s : strategies()) names.push_back(s->name);
  return names;
}

const LayoutStrategy* findStrategy(std::string_view name) {
  for (const LayoutStrategy* s : strategies()) {
    if (name == s->name) return s;
    if (!s->alias.empty() && name == s->alias) return s;
  }
  return nullptr;
}

namespace {

std::string joinedStrategyNames() {
  std::string joined;
  for (const LayoutStrategy* s : strategies()) {
    if (!joined.empty()) joined += ", ";
    joined += s->name;
  }
  return joined;
}

constexpr std::string_view kParamKeys[] = {
    "passes",          "chain_hot_threshold", "call_reach_bytes",
    "tsp_forward_bytes", "tsp_backward_bytes", "tsp_forward_weight",
    "tsp_backward_weight",
};

std::string joinedParamKeys() {
  std::string joined;
  for (const std::string_view k : kParamKeys) {
    if (!joined.empty()) joined += ", ";
    joined += k;
  }
  return joined;
}

/// Shortest decimal form that round-trips through from_chars — keeps
/// canonical specs short ("0.1", not "0.10000000000000001") yet exact.
std::string fmtDouble(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  WP_ENSURE(ec == std::errc{}, "double format failed");
  return std::string(buf, end);
}

u64 parseParam(std::string_view key, std::string_view value, u64 max) {
  const std::optional<u64> v = parseUnsigned(value, /*hex=*/false);
  if (!v || *v > max) {
    throw SimError("layout param '" + std::string(key) + "=" +
                   std::string(value) + "' is not a valid unsigned integer" +
                   " (expected an integer in [0, " + std::to_string(max) +
                   "])");
  }
  return *v;
}

double parseWeight(std::string_view key, std::string_view value) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc{} || ptr != value.data() + value.size() || !(v >= 0.0) ||
      !(v <= 1e6)) {
    throw SimError("layout param '" + std::string(key) + "=" +
                   std::string(value) +
                   "' is not a valid weight (expected a number in [0, 1e6])");
  }
  return v;
}

std::vector<std::string> parsePassList(std::string_view value) {
  std::vector<std::string> names;
  std::string_view rest = value;
  while (true) {
    const auto plus = rest.find('+');
    const std::string_view item = rest.substr(0, plus);
    if (item.empty() || passes::findOrderingPass(item) == nullptr) {
      throw SimError("layout param 'passes=" + std::string(value) +
                     "' names an unknown ordering pass '" +
                     std::string(item) + "' (valid: " +
                     passes::joinedOrderingPassNames() +
                     ", joined with '+')");
    }
    names.emplace_back(item);
    if (plus == std::string_view::npos) break;
    rest.remove_prefix(plus + 1);
  }
  return names;
}

void applyOneOverride(PassParams& params, std::string_view key,
                      std::string_view value) {
  constexpr u64 kMaxU32 = ~u32{0};
  if (key == "passes") {
    params.passes = parsePassList(value);
  } else if (key == "chain_hot_threshold") {
    params.chain_hot_threshold = parseParam(key, value, ~u64{0});
  } else if (key == "call_reach_bytes") {
    params.call_reach_bytes =
        static_cast<u32>(parseParam(key, value, kMaxU32));
  } else if (key == "tsp_forward_bytes") {
    params.tsp_forward_bytes =
        static_cast<u32>(parseParam(key, value, kMaxU32));
  } else if (key == "tsp_backward_bytes") {
    params.tsp_backward_bytes =
        static_cast<u32>(parseParam(key, value, kMaxU32));
  } else if (key == "tsp_forward_weight") {
    params.tsp_forward_weight = parseWeight(key, value);
  } else if (key == "tsp_backward_weight") {
    params.tsp_backward_weight = parseWeight(key, value);
  } else {
    throw SimError("unknown layout param '" + std::string(key) +
                   "' (valid: " + joinedParamKeys() + ")");
  }
}

void applyOverrideList(PassParams& params, std::string_view overrides) {
  std::string_view rest = overrides;
  if (rest.empty()) {
    throw SimError("empty layout param list (expected key=value,... with "
                   "keys: " + joinedParamKeys() + ")");
  }
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw SimError("malformed layout param '" + std::string(pair) +
                     "' (expected key=value with keys: " + joinedParamKeys() +
                     ")");
    }
    applyOneOverride(params, pair.substr(0, eq), pair.substr(eq + 1));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
}

bool passListNeedsProfile(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const passes::OrderingPass* p = passes::findOrderingPass(name);
    if (p != nullptr && p->needs_profile) return true;
  }
  return false;
}

std::string joinPassList(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += '+';
    joined += n;
  }
  return joined;
}

}  // namespace

const LayoutStrategy& parseStrategy(std::string_view name) {
  const LayoutStrategy* s = findStrategy(name);
  if (s == nullptr) {
    throw SimError("unknown layout strategy '" + std::string(name) +
                   "' (valid: " + joinedStrategyNames() + ")");
  }
  return *s;
}

StrategySpec specOf(const LayoutStrategy& strategy) {
  StrategySpec spec;
  spec.name = strategy.name;
  spec.needs_profile = strategy.needs_profile;
  spec.params = strategy.params;
  return spec;
}

StrategySpec resolveStrategy(std::string_view spec_str) {
  const auto brace = spec_str.find('{');
  const std::string_view name = spec_str.substr(0, brace);
  StrategySpec spec = specOf(parseStrategy(name));
  if (brace != std::string_view::npos) {
    if (spec_str.back() != '}') {
      throw SimError("malformed layout spec '" + std::string(spec_str) +
                     "' (expected name{key=value,...})");
    }
    applyOverrideList(
        spec.params, spec_str.substr(brace + 1, spec_str.size() - brace - 2));
    spec.needs_profile = passListNeedsProfile(spec.params.passes);
  }
  return spec;
}

std::string StrategySpec::canonical() const {
  const LayoutStrategy* base = findStrategy(name);
  WP_ENSURE(base != nullptr,
            "StrategySpec names unregistered strategy '" + name + "'");
  const PassParams& d = base->params;
  std::string kv;
  const auto add = [&](std::string_view key, std::string value) {
    if (!kv.empty()) kv += ',';
    kv += key;
    kv += '=';
    kv += value;
  };
  if (params.passes != d.passes) add("passes", joinPassList(params.passes));
  if (params.chain_hot_threshold != d.chain_hot_threshold) {
    add("chain_hot_threshold", std::to_string(params.chain_hot_threshold));
  }
  if (params.call_reach_bytes != d.call_reach_bytes) {
    add("call_reach_bytes", std::to_string(params.call_reach_bytes));
  }
  if (params.tsp_forward_bytes != d.tsp_forward_bytes) {
    add("tsp_forward_bytes", std::to_string(params.tsp_forward_bytes));
  }
  if (params.tsp_backward_bytes != d.tsp_backward_bytes) {
    add("tsp_backward_bytes", std::to_string(params.tsp_backward_bytes));
  }
  if (params.tsp_forward_weight != d.tsp_forward_weight) {
    add("tsp_forward_weight", fmtDouble(params.tsp_forward_weight));
  }
  if (params.tsp_backward_weight != d.tsp_backward_weight) {
    add("tsp_backward_weight", fmtDouble(params.tsp_backward_weight));
  }
  if (kv.empty()) return name;
  return name + "{" + kv + "}";
}

const std::string& defaultStrategyName() {
  static const std::string kDefault = "way_placement";
  return kDefault;
}

std::string strategyFromEnv() {
  const char* raw = std::getenv("WP_LAYOUT");
  try {
    return resolveStrategy((raw == nullptr || raw[0] == '\0')
                               ? std::string_view(defaultStrategyName())
                               : std::string_view(raw))
        .canonical();
  } catch (const SimError& e) {
    std::fprintf(stderr, "WP_LAYOUT: %s\n", e.what());
    std::exit(1);
  }
}

namespace {

/// ChainFormation + hot/cold split + the ordering-pass sequence.
/// @p chain_count receives the formed-chain count for the report.
std::vector<u32> orderedBlocks(const ir::Module& module,
                               const StrategySpec& spec, u64 seed,
                               u64* chain_count) {
  std::vector<Chain> chains = formChains(module);
  if (chain_count != nullptr) *chain_count = chains.size();

  // Hot/cold split: cold chains skip the passes and keep formation
  // order behind everything the passes placed.
  std::vector<Chain> cold;
  if (spec.params.chain_hot_threshold > 0) {
    std::vector<Chain> hot;
    for (Chain& c : chains) {
      (c.weight >= spec.params.chain_hot_threshold ? hot : cold)
          .push_back(std::move(c));
    }
    chains = std::move(hot);
  }

  for (const std::string& pass_name : spec.params.passes) {
    const passes::OrderingPass* pass = passes::findOrderingPass(pass_name);
    WP_ENSURE(pass != nullptr, "StrategySpec carries unknown ordering pass '" +
                                   pass_name + "'");
    chains = pass->run(module, std::move(chains), spec.params, seed);
  }

  std::vector<u32> order;
  order.reserve(module.blocks.size());
  for (const Chain& c : chains) {
    order.insert(order.end(), c.blocks.begin(), c.blocks.end());
  }
  for (const Chain& c : cold) {
    order.insert(order.end(), c.blocks.begin(), c.blocks.end());
  }
  WP_ENSURE(order.size() == module.blocks.size(),
            "placement order must cover every block");
  return order;
}

}  // namespace

std::vector<u32> orderBlocks(const ir::Module& module,
                             const StrategySpec& spec, u64 seed) {
  return orderedBlocks(module, spec, seed, nullptr);
}

LayoutResult runPipeline(const ir::Module& module, const StrategySpec& spec,
                         u64 seed) {
  u64 chain_count = 0;
  const std::vector<u32> order =
      orderedBlocks(module, spec, seed, &chain_count);

  LayoutResult result;
  result.report.strategy = spec.canonical();
  result.report.chains = chain_count;
  result.image = passes::emit(module, order, &result.report.repairs);

  result.report.spans.resize(module.blocks.size());
  for (const ir::BasicBlock& b : module.blocks) {
    LayoutReport::Span& s = result.report.spans[b.id];
    s.addr = result.image.block_addr.at(b.id);
    s.insts = static_cast<u32>(b.insts.size());
    s.exec = b.exec_count;
  }
  return result;
}

LayoutResult runPipeline(const ir::Module& module, std::string_view spec,
                         u64 seed) {
  return runPipeline(module, resolveStrategy(spec), seed);
}

LayoutResult runPipeline(const ir::Module& module,
                         const LayoutStrategy& strategy, u64 seed) {
  return runPipeline(module, specOf(strategy), seed);
}

}  // namespace wp::layout
