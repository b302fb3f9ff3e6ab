// Resilience sweep: injects every fault class into every fault-bearing
// scheme and checks the architectural-equivalence invariant — the
// retired instruction stream, data flow and workload output of a
// faulted run must be bit-identical to the fault-free run, while energy
// and delay may degrade boundedly. Exits non-zero on any violation, so
// this doubles as a long-form resilience regression test.
//
// Environment knobs: WP_BENCH_WORKLOADS, WP_SEED (see bench_common.hpp).
#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace wp;

struct ClassSpec {
  const char* name;
  fault::FaultSpec spec;
};

fault::FaultSpec one(bool fault::FaultSpec::* flag, u64 period) {
  fault::FaultSpec s;
  s.period = period;
  s.*flag = true;
  return s;
}

}  // namespace

int main() {
  bench::printHeader(
      "Resilience sweep: fault injection vs architectural equivalence",
      "the safety argument of section 4.1");

  const u64 kPeriod = 101;  // prime, so injections drift across loops
  const ClassSpec kClasses[] = {
      {"hint-flip", one(&fault::FaultSpec::flip_way_hint, kPeriod)},
      {"tlb-bit-flip", one(&fault::FaultSpec::flip_tlb_wp_bit, kPeriod)},
      {"tlb-bit-clear", one(&fault::FaultSpec::clear_tlb_wp_bits, kPeriod)},
      {"link-scramble", one(&fault::FaultSpec::scramble_memo_links, kPeriod)},
      {"mru-scramble", one(&fault::FaultSpec::scramble_mru, kPeriod)},
      {"resize-storm", one(&fault::FaultSpec::resize_storm, kPeriod)},
      {"all-classes", fault::FaultSpec::allClasses(kPeriod)},
  };

  const struct {
    const char* name;
    driver::SchemeSpec spec;
  } kSchemes[] = {
      {"way-placement", driver::SchemeSpec::wayPlacement(16 * 1024)},
      {"way-memoization", driver::SchemeSpec::wayMemoization()},
      {"way-prediction", driver::SchemeSpec::wayPrediction()},
  };

  // A fast, branchy subset; the full suite works but takes minutes.
  const std::vector<std::string> kDefault = {"crc", "sha", "bitcount"};

  driver::Runner runner(energy::EnergyParams{}, bench::experimentSeed());
  const cache::CacheGeometry geom = bench::initialICache();

  TextTable t;
  t.header({"workload", "scheme", "fault class", "events", "d-energy",
            "d-delay", "equivalent"});

  bool all_ok = true;
  const auto names = bench::selectedWorkloads(kDefault);
  for (const std::string& name : names) {
    const driver::PreparedWorkload p = runner.prepare(name);
    for (const auto& sch : kSchemes) {
      const driver::RunResult clean = runner.run(p, geom, sch.spec);
      for (const ClassSpec& cls : kClasses) {
        driver::SchemeSpec spec = sch.spec;
        spec.fault = cls.spec;
        const driver::RunResult faulted = runner.run(p, geom, spec);
        if (faulted.injected.events == 0) continue;  // class not applicable

        const bool ok =
            faulted.stats.retired_pc_hash == clean.stats.retired_pc_hash &&
            faulted.stats.dataflow_hash == clean.stats.dataflow_hash &&
            faulted.stats.instructions == clean.stats.instructions &&
            faulted.output == clean.output &&
            faulted.output == p.workload->expected(workloads::InputSize::kLarge);
        all_ok = all_ok && ok;

        const double de = faulted.energy.total() / clean.energy.total() - 1.0;
        const double dd = static_cast<double>(faulted.stats.cycles) /
                              static_cast<double>(clean.stats.cycles) -
                          1.0;
        t.row({name, sch.name, cls.name,
               std::to_string(faulted.injected.events), fmtPct(de, 2),
               fmtPct(dd, 2), ok ? "yes" : "NO"});
      }
    }
  }
  t.print(std::cout);

  std::cout << "\ninvariant: faulted retired stream, data flow and outputs "
            << (all_ok ? "bit-identical to fault-free runs\n"
                       : "DIVERGED — way-placement state leaked into "
                         "correctness\n");

  // --- Cell supervision: whole-cell faults (a simulation that throws
  // SimError mid-run) are the other resilience axis. A transient fault
  // must heal on retry with a result bit-identical to the clean cell
  // (the retry replays the same deterministic simulation), and a
  // persistent fault must quarantine instead of aborting the sweep.
  std::cout << "\ncell supervision (retries=2, way-placement 16KB):\n";
  driver::SupervisorConfig cfg;
  cfg.retries = 2;
  driver::SweepExecutor suite(names, energy::EnergyParams{},
                              bench::experimentSeed(), 0, &cfg);
  const driver::SchemeSpec wp_clean =
      driver::SchemeSpec::wayPlacement(16 * 1024);
  driver::SchemeSpec wp_transient = wp_clean;
  wp_transient.fault.cell_fault = fault::CellFault::kTransient;
  wp_transient.fault.cell_fault_failures = 1;
  driver::SchemeSpec wp_persistent = wp_clean;
  wp_persistent.fault.cell_fault = fault::CellFault::kPersistent;
  suite.runAll(
      {{geom, wp_clean}, {geom, wp_transient}, {geom, wp_persistent}});

  TextTable st;
  st.header({"workload", "transient fate", "attempts", "healed == clean",
             "persistent fate"});
  for (const auto& p : suite.prepared()) {
    const auto clean = suite.tryRun(p, geom, wp_clean);
    const auto healed = suite.tryRun(p, geom, wp_transient);
    const auto quar = suite.tryRun(p, geom, wp_persistent);
    const bool healed_ok = !clean.quarantined && !healed.quarantined &&
                           healed.attempts == 2;
    const bool equal =
        healed_ok &&
        driver::statsDigest(*healed.result) ==
            driver::statsDigest(*clean.result) &&
        healed.result->output == clean.result->output;
    const bool quar_ok =
        quar.quarantined && quar.error != nullptr &&
        quar.error->find(driver::SweepExecutor::keyOf(
            p.name, geom, wp_persistent)) != std::string::npos;
    all_ok = all_ok && equal && quar_ok;
    st.row({p.name, healed_ok ? "healed" : "NOT HEALED",
            std::to_string(healed.attempts), equal ? "yes" : "NO",
            quar_ok ? "quarantined" : "NOT QUARANTINED"});
  }
  st.print(std::cout);

  std::cout << "\nsupervision invariant: transient cell faults heal with "
            << (all_ok ? "bit-identical results;\npersistent ones quarantine "
                         "instead of aborting the sweep\n"
                       : "DIVERGENCE or a missed quarantine — the\n"
                         "supervision layer is broken\n");
  suite.printSummary(std::cerr);

  // --- Result store: a second sweep against the store the first one
  // populated must serve every cell from disk (zero computes) with
  // results byte-identical to the computed ones.
  std::cout << "\nresult store (cold populate, warm serve):\n";
  const char* tmp = std::getenv("TMPDIR");
  const std::string store_dir =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/wayplace-resilience-store-" +
      std::to_string(bench::experimentSeed());
  // Start cold even after a previous bench run left records behind.
  if (DIR* d = ::opendir(store_dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n != "." && n != "..") ::unlink((store_dir + "/" + n).c_str());
    }
    ::closedir(d);
  }
  ::setenv("WP_STORE", store_dir.c_str(), 1);
  double cold_e = 0.0;
  double warm_e = 0.0;
  u64 warm_computed = 0;
  u64 warm_hits = 0;
  {
    driver::SweepExecutor cold(names, energy::EnergyParams{},
                               bench::experimentSeed(), 0);
    cold_e = cold.averageNormalized(
        geom, wp_clean,
        [](const driver::Normalized& n) { return n.icache_energy; });
    cold.printSummary(std::cerr);
  }
  {
    driver::SweepExecutor warm(names, energy::EnergyParams{},
                               bench::experimentSeed(), 0);
    warm_e = warm.averageNormalized(
        geom, wp_clean,
        [](const driver::Normalized& n) { return n.icache_energy; });
    warm_computed = warm.metrics().counter("cells.computed").value();
    warm_hits = warm.metrics().counter("store.hits").value();
    warm.printSummary(std::cerr);
  }
  ::unsetenv("WP_STORE");
  const bool store_ok =
      warm_e == cold_e && warm_computed == 0 && warm_hits > 0;
  all_ok = all_ok && store_ok;
  std::cout << "cold mean icache energy: " << cold_e
            << "\nwarm mean icache energy: " << warm_e << " ("
            << warm_hits << " store hit(s), " << warm_computed
            << " computed)\n\nstore invariant: a warm store serves "
            << (store_ok ? "byte-identical results without recomputing\n"
                         : "WRONG OR RECOMPUTED results — the store is "
                           "broken\n");

  // --- Switch storms: a multiprogrammed co-run at a tiny quantum is a
  // per-switch flush storm — every context switch flushes the VIVT
  // I-cache, flash-clears the memo links, resets the way hint and
  // (with drowsy lines on) must leave every line asleep; FetchPath
  // ENSUREs awakeLines() == 0 after each storm, so a violation throws
  // and fails this bench. Through thousands of storms each guest's
  // retired stream, data flow and output must still equal its solo run.
  std::cout << "\nswitch storms (quantum 997, flush policy):\n";
  {
    const driver::PreparedWorkload storm_p = runner.prepare(names.front());
    const driver::PreparedWorkload storm_q =
        runner.prepare(names.size() > 1 ? names[1] : names.front());
    const struct {
      const char* name;
      driver::SchemeSpec spec;
    } kStormConfigs[] = {
        {"way-placement 16KB + drowsy-16",
         [] {
           driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(16 * 1024);
           s.drowsy_window = 16;  // every switch must re-drowse the cache
           return s;
         }()},
        {"way-memoization (link storms)",
         driver::SchemeSpec::wayMemoization()},
    };

    TextTable storms;
    storms.header({"config", "switches", "link storms", "drowsy wakeups",
                   "solo-equal"});
    bool storm_ok = true;
    for (const auto& cfg : kStormConfigs) {
      const driver::RunResult solo_p = runner.run(storm_p, geom, cfg.spec);
      const driver::RunResult solo_q = runner.run(storm_q, geom, cfg.spec);
      driver::SchemeSpec co_spec = cfg.spec;
      co_spec.corun_quantum = 997;  // prime: storms drift across loops
      co_spec.corun_tlb = cache::TlbSwitchPolicy::kFlush;
      driver::Runner::CoRunExtra extra;
      const driver::RunResult co =
          runner.runCoRun({&storm_p, &storm_q}, geom, co_spec,
                          workloads::InputSize::kLarge, nullptr, &extra);
      const bool ok =
          extra.processes.size() == 2 &&
          extra.processes[0].retired_pc_hash ==
              solo_p.stats.retired_pc_hash &&
          extra.processes[0].dataflow_hash == solo_p.stats.dataflow_hash &&
          extra.processes[0].output ==
              storm_p.workload->expected(workloads::InputSize::kLarge) &&
          extra.processes[1].retired_pc_hash ==
              solo_q.stats.retired_pc_hash &&
          extra.processes[1].dataflow_hash == solo_q.stats.dataflow_hash &&
          extra.processes[1].output ==
              storm_q.workload->expected(workloads::InputSize::kLarge);
      storm_ok = storm_ok && ok;
      storms.row({cfg.name, std::to_string(extra.context_switches),
                  std::to_string(co.stats.link_flash_clears),
                  std::to_string(co.stats.drowsy.wakeups),
                  ok ? "yes" : "NO"});
    }
    storms.print(std::cout);
    all_ok = all_ok && storm_ok;
    std::cout << "\nstorm invariant: per-switch flush storms leave every "
                 "drowsy line asleep and the guests "
              << (storm_ok ? "solo-identical\n"
                           : "DIVERGED from their solo runs\n");
  }
  return all_ok ? 0 : 1;
}
