// The crash-only sweep evaluation daemon (DESIGN.md §14).
//
// Prepares the benchmark suite once (WP_BENCH_WORKLOADS / WP_SEED /
// WP_JOBS, exactly like every figure bench), then serves evaluation
// requests over a Unix-domain socket until drained — see
// driver/service.hpp for the protocol and the WP_SERVE_* knobs, and
// EXPERIMENTS.md for the schema. Run it under WP_STORE to make every
// answered request durable: a SIGKILLed daemon restarted on the same
// store re-serves its history byte-identically with zero recomputation.
//
// Exit codes: 0 after a clean drain (SIGTERM or a drain request),
// 1 when the socket cannot be bound or the environment is malformed.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "driver/service.hpp"
#include "support/shutdown.hpp"

int main() {
  using namespace wp;

  // All strict env parsing first, so a bad knob fails in milliseconds
  // instead of after minutes of suite preparation.
  const driver::ServiceConfig config = driver::ServiceConfig::fromEnv();
  // WP_CELL_TIMEOUT_MS is the request deadline: the same in-process
  // watchdog that bounds every bench cell.
  const driver::SupervisorConfig sup = driver::SupervisorConfig::fromEnv();
  const std::vector<std::string> workloads = bench::selectedWorkloads();
  const u64 seed = bench::experimentSeed();

  ShutdownLatch& latch = ShutdownLatch::instance();
  latch.install();

  std::fprintf(stderr, "[wp_serve] preparing %zu workload(s), seed %llu\n",
               workloads.size(), static_cast<unsigned long long>(seed));
  // No interrupt latch on purpose: under drain the service finishes
  // admitted cells (their replies are owed) instead of quarantining
  // not-yet-started ones like an interrupted bench does.
  driver::SweepExecutor suite(workloads, energy::EnergyParams{}, seed, 0,
                              &sup, nullptr);

  driver::SweepService service(config, suite, latch);
  const int rc = service.serve();
  suite.printSummary(std::cerr);
  suite.emitJsonIfRequested();
  return rc;
}
