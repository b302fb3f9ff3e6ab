#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "support/number.hpp"
#include "support/shutdown.hpp"
#include "workloads/workload.hpp"

namespace wp::bench {

std::vector<std::string> selectedWorkloads(
    std::vector<std::string> fallback) {
  const char* env = std::getenv("WP_BENCH_WORKLOADS");
  if (env == nullptr || *env == '\0') return fallback;
  const std::vector<std::string> all = workloads::suiteNames();
  std::vector<std::string> names;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (std::find(all.begin(), all.end(), item) == all.end()) {
      std::fprintf(stderr,
                   "error: WP_BENCH_WORKLOADS names unknown workload "
                   "'%s'; valid names are:\n ",
                   item.c_str());
      for (const std::string& n : all) std::fprintf(stderr, " %s", n.c_str());
      std::fprintf(stderr, "\n");
      std::exit(1);
    }
    // A repeat would be prepared twice and weigh twice in every suite
    // average.
    if (std::find(names.begin(), names.end(), item) != names.end()) {
      std::fprintf(stderr,
                   "error: WP_BENCH_WORKLOADS names workload '%s' twice\n",
                   item.c_str());
      std::exit(1);
    }
    names.push_back(item);
  }
  if (names.empty()) {
    std::fprintf(stderr,
                 "error: WP_BENCH_WORKLOADS='%s' names no workload (leave "
                 "it unset or empty for the bench's default)\n",
                 env);
    std::exit(1);
  }
  return names;
}

u64 experimentSeed() {
  return envUnsigned("WP_SEED", 0, 0, ~u64{0}, "seed");
}

driver::SweepExecutor makeSuite() {
  // Way-placement cells read WP_LAYOUT only after preparation; a
  // malformed spec must fail at startup like every other knob.
  (void)layout::strategyFromEnv();
  // Every bench is interrupt-aware: SIGTERM/SIGINT latches, cells that
  // have not started quarantine as `interrupted`, and finish() flushes
  // the partial WP_JSON report and exits 5 instead of losing the run.
  ShutdownLatch& latch = ShutdownLatch::instance();
  latch.install();
  return driver::SweepExecutor(selectedWorkloads(), energy::EnergyParams{},
                               experimentSeed(), 0, nullptr, &latch);
}

int finish(const driver::SweepExecutor& suite) {
  std::vector<driver::SweepExecutor::QuarantinedCell> failed;
  std::size_t interrupted = 0;
  for (auto& q : suite.quarantined()) {
    if (q.interrupted) {
      ++interrupted;
    } else {
      failed.push_back(std::move(q));
    }
  }
  if (!failed.empty()) {
    // Part of the bench's result, so it goes to stdout with the tables:
    // anyone diffing output sees exactly which cells the averages lost.
    std::cout << "\nDEGRADED RESULTS: " << failed.size()
              << " cell(s) quarantined after exhausting retries; averages "
                 "marked '*' exclude them, cells marked QUAR have no "
                 "surviving data.\n";
    for (const auto& q : failed) {
      std::cout << "  QUAR " << q.error << "\n";
    }
  }
  const bool was_interrupted = ShutdownLatch::instance().requested();
  if (was_interrupted) {
    // A count, not a listing: an early SIGTERM can skip hundreds of
    // cells, and the point of the footer is "this table is partial",
    // not a per-cell audit (the WP_JSON quarantined section has that).
    std::cout << "\nINTERRUPTED SWEEP: shutdown signal received; "
              << interrupted
              << " cell(s) were never started and render as QUAR. Partial "
                 "results above are trustworthy; rerun to complete.\n";
  }
  suite.printSummary(std::cerr);
  suite.emitJsonIfRequested();
  if (was_interrupted) return 5;
  return failed.empty() ? 0 : 3;
}

std::string cellPct(const driver::SweepExecutor::SuiteAverage& a,
                    int decimals) {
  if (a.included == 0) return "QUAR";
  return fmtPct(a.mean, decimals) + (a.degraded() ? "*" : "");
}

std::string cellNum(const driver::SweepExecutor::SuiteAverage& a,
                    int decimals) {
  if (a.included == 0) return "QUAR";
  return fmt(a.mean, decimals) + (a.degraded() ? "*" : "");
}

void printRunnerSummary(const driver::Runner& runner) {
  MetricsRegistry& m = runner.metrics();
  const double simulate = m.timer("phase.simulate").seconds();
  const u64 insts = m.counter("guest.instructions").value();
  std::fprintf(stderr,
               "[wayplace] runner: %llu simulations, %.1fM guest insts, "
               "simulate %.2fs host (%.1f MIPS)\n",
               static_cast<unsigned long long>(
                   m.timer("phase.simulate").count()),
               static_cast<double>(insts) / 1e6, simulate,
               simulate > 0.0
                   ? static_cast<double>(insts) / simulate / 1e6
                   : 0.0);
}

void printHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref
            << " of Jones et al., DATE 2008)\n"
            << "experiment seed: " << experimentSeed()
            << " (set WP_SEED to change), jobs: " << driver::jobsFromEnv()
            << " (set WP_JOBS to change)\n"
            << "==============================================================\n\n";
}

}  // namespace wp::bench
