// One-loop equivalence: batching is a host optimisation, never a model
// change. The retire loop dispatches whole BlockCache runs through
// FetchPath::fetchLine, or one instruction per fetch when the closed
// form is inexact — and an attached fault hook is what makes it
// inexact. So the same machine runs twice here: with a no-op
// FetchFaultHook (the per-instruction reference, every retirement one
// FetchPath::fetch) and without (batched). Over the full workload suite
// the two must agree on the retired instruction stream, the data flow,
// the workload output and every RunStats counter (statsDigest also
// folds in the priced energy).
#include <gtest/gtest.h>

#include "driver/checkpoint.hpp"
#include "driver/runner.hpp"
#include "workloads/workload.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

/// Observes nothing; attaching it only forces one-instruction batches.
class NoOpHook : public cache::FetchFaultHook {
 public:
  void onFetch(cache::FetchPath&) override {}
};

/// Runs @p spec on @p p on a sim::Processor over the Runner's machine
/// (the unclamped WP area; Runner has no hook seam), with @p hook
/// attached when non-null.
driver::RunResult runOnProcessor(const driver::Runner& runner,
                                 const driver::PreparedWorkload& p,
                                 const driver::SchemeSpec& spec,
                                 cache::FetchFaultHook* hook) {
  const mem::Image& image = p.imageFor(spec.layout);
  mem::Memory memory;
  image.loadInto(memory);
  p.workload->prepare(memory, workloads::InputSize::kLarge);
  const sim::MachineConfig machine = runner.machineFor(kXScale, spec);
  sim::Processor proc(machine, image, memory);
  proc.fetchPath().attachFaultHook(hook);
  driver::RunResult r;
  r.stats = proc.run();
  r.energy = sim::Processor::price(runner.energyModel(), machine, r.stats);
  r.output = p.workload->output(memory);
  return r;
}

// ---------------------------------------------------------------------
// The property test: every workload in the suite, every scheme,
// identical results.

TEST(EngineEquivalence, AllWorkloadsIdenticalAcrossEngines) {
  driver::Runner runner;
  NoOpHook hook;

  // All four schemes: way placement exercises the richest fetch path
  // (hint, TLB WP bit, single-way lookups, intra-line skips), way
  // memoization the link/flash-clear machinery, way prediction the
  // per-set MRU batching, and the baseline the plain path. One
  // prepared workload is shared per name, so any divergence is the
  // batching's, not the build's.
  const driver::SchemeSpec specs[] = {
      driver::SchemeSpec::baseline(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPrediction(),
  };
  for (const std::string& name : workloads::suiteNames()) {
    SCOPED_TRACE(name);
    const driver::PreparedWorkload p = runner.prepare(name);
    for (const driver::SchemeSpec& spec : specs) {
      SCOPED_TRACE(cache::schemeName(spec.scheme));
      const driver::RunResult interp = runOnProcessor(runner, p, spec, &hook);
      const driver::RunResult block = runOnProcessor(runner, p, spec, nullptr);
      EXPECT_EQ(interp.stats.retired_pc_hash, block.stats.retired_pc_hash);
      EXPECT_EQ(interp.stats.dataflow_hash, block.stats.dataflow_hash);
      EXPECT_EQ(interp.stats.instructions, block.stats.instructions);
      EXPECT_EQ(interp.stats.cycles, block.stats.cycles);
      EXPECT_EQ(interp.output, block.output);
      EXPECT_EQ(interp.output,
                p.workload->expected(workloads::InputSize::kLarge));
      // Full RunStats + priced energy, in one digest.
      EXPECT_EQ(driver::statsDigest(interp), driver::statsDigest(block));
    }
  }
}

}  // namespace
}  // namespace wp
