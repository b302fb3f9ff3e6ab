// Multiprogramming bench: co-run pairs time-sliced over one shared
// fetch path, sweeping the context-switch quantum. Table 1 prices each
// scheme against its *co-run* baseline (same pair, same quantum, same
// TLB policy) so the numbers isolate the scheme under switching; Table
// 2 reads the switch-cost counters the schemes are sensitive to
// (way-hint second accesses, memo-link invalidation storms, I-TLB
// walks); Table 3 verifies the architectural invariant — every
// process's retired stream, data flow and output equal its solo run at
// every quantum — and the bench exits non-zero if it ever breaks.
//
// Environment knobs (beyond bench_common's WP_BENCH_WORKLOADS/WP_SEED/
// WP_JOBS/WP_JSON; all strictly parsed):
//   WP_CORUN_QUANTA  comma-separated switch quanta in retired
//                    instructions, each a positive decimal or 0x-hex
//                    number (default: 2000,20000,200000)
//   WP_TLB_SWITCH    I-TLB switch policy: flush | asid | both
//                    (default: both)
// Each workload co-runs with the next one in the pool (cyclically), so
// every workload appears once as primary and once as partner. The
// default pool is a fast branchy subset; WP_BENCH_WORKLOADS widens it.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "support/number.hpp"
#include "support/stats.hpp"

namespace {

using namespace wp;

std::vector<u64> quantaFromEnv() {
  const char* env = std::getenv("WP_CORUN_QUANTA");
  if (env == nullptr || *env == '\0') return {2000, 20000, 200000};
  std::vector<u64> quanta;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::optional<u64> q = parseUnsigned(item, /*hex=*/true);
    if (!q || *q == 0) {
      std::fprintf(stderr,
                   "error: WP_CORUN_QUANTA='%s' is not a valid quantum "
                   "list (expected comma-separated positive decimal or "
                   "0x-hex instruction counts)\n",
                   env);
      std::exit(1);
    }
    quanta.push_back(*q);
  }
  if (quanta.empty()) {
    std::fprintf(stderr, "error: WP_CORUN_QUANTA='%s' names no quantum\n",
                 env);
    std::exit(1);
  }
  return quanta;
}

std::vector<cache::TlbSwitchPolicy> policiesFromEnv() {
  const char* env = std::getenv("WP_TLB_SWITCH");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "both") == 0) {
    return {cache::TlbSwitchPolicy::kFlush,
            cache::TlbSwitchPolicy::kAsidTagged};
  }
  if (std::strcmp(env, "flush") == 0) return {cache::TlbSwitchPolicy::kFlush};
  if (std::strcmp(env, "asid") == 0) {
    return {cache::TlbSwitchPolicy::kAsidTagged};
  }
  std::fprintf(stderr,
               "error: WP_TLB_SWITCH='%s' is not a valid switch policy "
               "(expected flush, asid or both)\n",
               env);
  std::exit(1);
}

driver::SchemeSpec corun(driver::SchemeSpec s, u64 quantum,
                         const std::string& partner,
                         cache::TlbSwitchPolicy policy) {
  s.corun_quantum = quantum;
  s.corun_partners = partner;
  s.corun_tlb = policy;
  return s;
}

/// Suite average of `metric` over per-primary co-run cells (each
/// primary pairs with its own partner, so the spec differs per row —
/// averageNormalizedChecked's one-spec shape does not fit). Quarantined
/// cells are excluded and surface through the '*'/QUAR rendering.
template <typename SpecFor, typename Metric>
driver::SweepExecutor::SuiteAverage averageOverPairs(
    driver::SweepExecutor& suite, const cache::CacheGeometry& icache,
    const SpecFor& specFor, const Metric& metric) {
  Accumulator acc;
  driver::SweepExecutor::SuiteAverage out;
  for (const driver::PreparedWorkload& p : suite.prepared()) {
    const driver::SchemeSpec spec = specFor(p.name);
    const auto base =
        suite.tryRun(p, icache, driver::SchemeSpec::baselineFor(spec));
    const auto cell = suite.tryRun(p, icache, spec);
    if (base.quarantined || cell.quarantined) {
      ++out.excluded;
      continue;
    }
    acc.add(metric(driver::normalize(*cell.result, *base.result, p.name)));
    ++out.included;
  }
  if (out.included > 0) out.mean = acc.mean();
  return out;
}

}  // namespace

int main() {
  using namespace wp;
  bench::printHeader(
      "Multiprogramming: context-switch quantum sweep\n"
      "co-run pairs on one shared fetch path, 32KB 32-way I-cache",
      "the OS page-attribute context of Section 4.1, extended to "
      "multiprogrammed guests");

  // A fast, branchy default pool; WP_BENCH_WORKLOADS overrides it.
  const std::vector<std::string> names =
      bench::selectedWorkloads({"crc", "sha", "bitcount"});
  const std::vector<u64> quanta = quantaFromEnv();
  const std::vector<cache::TlbSwitchPolicy> policies = policiesFromEnv();

  driver::SweepExecutor suite(names, energy::EnergyParams{},
                              bench::experimentSeed());
  const cache::CacheGeometry icache = bench::initialICache();
  const auto partnerOf = [&](const std::string& primary) -> std::string {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == primary) return names[(i + 1) % names.size()];
    }
    return names.front();  // unreachable: primaries come from `names`
  };

  const struct {
    const char* name;
    driver::SchemeSpec spec;
  } kSchemes[] = {
      {"way-placement 16KB", driver::SchemeSpec::wayPlacement(16 * 1024)},
      {"way-memoization", driver::SchemeSpec::wayMemoization()},
      {"way-prediction", driver::SchemeSpec::wayPrediction()},
  };

  std::cout << "Table 1: normalized energy under co-running (vs the "
               "co-run baseline of the same pair/quantum/policy)\n";
  TextTable t1;
  t1.header({"scheme", "quantum", "tlb switch", "I$ energy (avg)",
             "ED product (avg)"});
  for (const auto& sch : kSchemes) {
    for (const u64 q : quanta) {
      for (const auto policy : policies) {
        const auto specFor = [&](const std::string& primary) {
          return corun(sch.spec, q, partnerOf(primary), policy);
        };
        const auto e = averageOverPairs(
            suite, icache, specFor,
            [](const driver::Normalized& n) { return n.icache_energy; });
        const auto ed = averageOverPairs(
            suite, icache, specFor,
            [](const driver::Normalized& n) { return n.ed_product; });
        t1.row({sch.name, std::to_string(q),
                cache::tlbSwitchPolicyName(policy), bench::cellPct(e, 1),
                bench::cellNum(ed, 3)});
      }
    }
    t1.separator();
  }
  t1.print(std::cout);

  // --- Table 2: the switch-cost counters behind Table 1's movement.
  // Rates per 10k retired instructions, averaged over the pairs: hint
  // second accesses from the way-placement cells, link flash-clears
  // (the per-switch invalidation storms) from the way-memoization
  // cells, I-TLB walks (WP-area/page-table contention) from the co-run
  // baseline cells.
  std::cout << "\nTable 2: switch-cost counters (events per 10k "
               "instructions, pair average)\n";
  TextTable t2;
  t2.header({"quantum", "tlb switch", "hint 2nd-access", "link storms",
             "I-TLB walks"});
  bool all_ok = true;
  for (const u64 q : quanta) {
    for (const auto policy : policies) {
      const auto rate = [&](const driver::SchemeSpec& scheme_spec,
                            const auto& counter) {
        Accumulator acc;
        driver::SweepExecutor::SuiteAverage avg;
        for (const driver::PreparedWorkload& p : suite.prepared()) {
          const auto cell = suite.tryRun(
              p, icache, corun(scheme_spec, q, partnerOf(p.name), policy));
          if (cell.quarantined) {
            ++avg.excluded;
            continue;
          }
          acc.add(1e4 * static_cast<double>(counter(*cell.result)) /
                  static_cast<double>(cell.result->stats.instructions));
          ++avg.included;
        }
        if (avg.included > 0) avg.mean = acc.mean();
        return avg;
      };
      const auto hint =
          rate(kSchemes[0].spec, [](const driver::RunResult& r) {
            return r.stats.fetch.hint_miss_second_access;
          });
      const auto storms =
          rate(kSchemes[1].spec, [](const driver::RunResult& r) {
            return r.stats.link_flash_clears;
          });
      const auto walks =
          rate(driver::SchemeSpec::baseline(),
               [](const driver::RunResult& r) { return r.stats.itlb.walks; });
      t2.row({std::to_string(q), cache::tlbSwitchPolicyName(policy),
              bench::cellNum(hint, 2), bench::cellNum(storms, 2),
              bench::cellNum(walks, 2)});
    }
  }
  t2.print(std::cout);

  // --- Table 3: the architectural invariant. Time-slicing may move
  // energy and cycles, but each guest's retired stream, data flow and
  // output must equal its solo run at every quantum — a violation means
  // shared fetch-path state leaked into correctness, and the bench
  // exits 1.
  std::cout << "\nTable 3: per-process solo equivalence (way-placement "
               "16KB, flush policy)\n";
  TextTable t3;
  t3.header({"primary", "partner", "quantum", "switches", "slices",
             "solo-equal"});
  const driver::SchemeSpec solo_wp = kSchemes[0].spec;
  for (const driver::PreparedWorkload& p : suite.prepared()) {
    const std::string partner_name = partnerOf(p.name);
    const driver::PreparedWorkload* partner = nullptr;
    for (const driver::PreparedWorkload& cand : suite.prepared()) {
      if (cand.name == partner_name) partner = &cand;
    }
    const auto solo_p = suite.tryRun(p, icache, solo_wp);
    const auto solo_q = suite.tryRun(*partner, icache, solo_wp);
    for (const u64 q : quanta) {
      driver::Runner::CoRunExtra extra;
      const driver::RunResult co = suite.runner().runCoRun(
          {&p, partner}, icache,
          corun(solo_wp, q, "", cache::TlbSwitchPolicy::kFlush),
          workloads::InputSize::kLarge, nullptr, &extra);
      const bool ok =
          !solo_p.quarantined && !solo_q.quarantined &&
          extra.processes.size() == 2 &&
          extra.processes[0].retired_pc_hash ==
              solo_p.result->stats.retired_pc_hash &&
          extra.processes[0].dataflow_hash ==
              solo_p.result->stats.dataflow_hash &&
          extra.processes[0].output ==
              p.workload->expected(workloads::InputSize::kLarge) &&
          extra.processes[1].retired_pc_hash ==
              solo_q.result->stats.retired_pc_hash &&
          extra.processes[1].dataflow_hash ==
              solo_q.result->stats.dataflow_hash &&
          extra.processes[1].output ==
              partner->workload->expected(workloads::InputSize::kLarge) &&
          co.stats.instructions == solo_p.result->stats.instructions +
                                       solo_q.result->stats.instructions;
      all_ok = all_ok && ok;
      t3.row({p.name, partner_name, std::to_string(q),
              std::to_string(extra.context_switches),
              std::to_string(extra.slices), ok ? "yes" : "NO"});
    }
  }
  t3.print(std::cout);

  std::cout << "\ninvariant: co-run retired streams, data flow and outputs "
            << (all_ok ? "bit-identical to solo runs at every quantum\n"
                       : "DIVERGED — shared fetch-path state leaked into "
                         "correctness\n");

  const int fate = bench::finish(suite);
  return all_ok ? fate : 1;
}
