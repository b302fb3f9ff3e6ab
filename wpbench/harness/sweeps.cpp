// The two sweep workloads.
//
// fig6_grid     the paper's Figure 6 grid (23 workloads x 9 geometries x
//               {way-memo, WP 16/8/4/2/1 KB} plus baselines = 1449 cells),
//               cold, submitted with one SweepExecutor::runAll per pass.
// corun_switch  the bench_multiprog grid: crc/sha/bitcount each co-run
//               with the next one, quanta {2k, 20k, 200k} x {flush, asid}
//               x {WP 16 KB, way-memo, way-prediction} plus the co-run
//               baselines = 72 cells. runAll crosses every cell with every
//               prepared workload, so the cyclic partner shape is fanned
//               out by the harness instead, with runAll's per-job body
//               (baseline, then cell) on its own threads.
//
// Every timed grid runs on freshly prepared executors. A traced run reads
// the sweep layer's counters from its untraced timed pass, so they
// describe the path cells_per_s measures. Its spans come from a fan-out
// pass over a fresh executor with a span per job (on fig6_grid, over the
// default three-workload subset), and trace.overhead_pct compares that
// pass with the same fan-out untraced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "driver/sweep.hpp"
#include "harness.hpp"
#include "support/metrics.hpp"
#include "workloads/workload.hpp"

namespace wpbench {
namespace {

using wp::cache::CacheGeometry;
using wp::driver::PreparedWorkload;
using wp::driver::RunResult;
using wp::driver::SchemeSpec;
using wp::driver::SweepExecutor;
using wp::workloads::InputSize;

constexpr unsigned kSetupSamples = 41;
/// The repository's default three-workload subset (bench_multiprog,
/// resilience_sweep).
const std::vector<std::string> kDefaultSubset = {"crc", "sha", "bitcount"};

/// One runAll job: a scheme cell of one workload (its baseline implied).
struct GridTask {
  const PreparedWorkload* p = nullptr;
  CacheGeometry g;
  SchemeSpec spec;
  /// Guest output the cell must produce (its expected() bytes, in group
  /// order for a co-run).
  const std::vector<u8>* expected = nullptr;
};

/// A simulated cell's guest outcome: cycles, instructions, retired-PC
/// and data-flow hashes, I-cache and total energy.
using Outcome = std::tuple<u64, u64, u64, u64, double, double>;

unsigned passesFor(double seconds, double nominal_pass_seconds) {
  return static_cast<unsigned>(
      std::max(1.0, std::round(seconds / nominal_pass_seconds)));
}

std::unique_ptr<SweepExecutor> prepareSuite(
    const std::vector<std::string>& names, const Options& opt,
    RunOutput& out) {
  const double t0 = nowSeconds();
  auto suite = std::make_unique<SweepExecutor>(
      names, wp::energy::EnergyParams{}, opt.seed, opt.jobs);
  out.setup_s.push_back(nowSeconds() - t0);
  return suite;
}

/// Every distinct cell (baselines included) a task list requests, once,
/// by key. A baseline must produce its task's guest output too.
std::map<std::string, GridTask> distinctCells(const std::vector<GridTask>& tasks) {
  std::map<std::string, GridTask> cells;
  for (const GridTask& t : tasks) {
    for (const SchemeSpec& spec : {SchemeSpec::baselineFor(t.spec), t.spec}) {
      GridTask cell = t;
      cell.spec = spec;
      cells.emplace(SweepExecutor::keyOf(t.p->name, t.g, spec), cell);
    }
  }
  return cells;
}

/// Counts every quarantined cell and every guest output that differs
/// from the workload's host reference, once per distinct cell, and adds
/// the distinct cells to the attempted count.
void verifyTasks(SweepExecutor& suite, const std::vector<GridTask>& tasks,
                 RunOutput& out) {
  const std::map<std::string, GridTask> cells = distinctCells(tasks);
  for (const auto& [key, c] : cells) {
    const auto view = suite.tryRun(*c.p, c.g, c.spec);
    if (view.quarantined) {
      out.fail("quarantined " + key);
    } else if (view.result->output != *c.expected) {
      out.fail("guest output differs from expected() for " + key);
    }
  }
  out.attempted += cells.size();
}

struct FanOut {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< summed thread CPU of every job
  std::vector<double> cell_ms;
};

/// runAll's per-job body (baseline, then cell) on the harness's own
/// threads; each job and call gets a span when the tracer is on.
FanOut fanOut(SweepExecutor& suite, const std::vector<GridTask>& tasks,
              unsigned jobs, Tracer& tracer, int parent) {
  FanOut r;
  r.cell_ms.assign(tasks.size(), 0.0);
  std::vector<double> cpu(tasks.size(), 0.0);
  const double t0 = nowSeconds();
  parallelFor(jobs, tasks.size(), [&](std::size_t i) {
    const GridTask& t = tasks[i];
    const double c0 = wp::threadCpuSeconds();
    const int job = tracer.open("sweep.job", i, parent);
    const int base = tracer.open("sweep.baseline", i, job);
    (void)suite.tryRun(*t.p, t.g, SchemeSpec::baselineFor(t.spec));
    tracer.finish(base);
    const double c1 = nowSeconds();
    const int cell = tracer.open("sweep.cell", i, job);
    (void)suite.tryRun(*t.p, t.g, t.spec);
    tracer.finish(cell);
    r.cell_ms[i] = (nowSeconds() - c1) * 1e3;
    tracer.finish(job);
    cpu[i] = wp::threadCpuSeconds() - c0;
  });
  r.wall_s = nowSeconds() - t0;
  for (const double c : cpu) r.cpu_s += c;
  return r;
}

/// The workload/size/ways/line/scheme group of a cell key: its first
/// five fields.
std::string groupOf(const std::string& key) {
  std::size_t cut = 0;
  for (int slash = 0; slash < 5 && cut != std::string::npos; ++slash) {
    cut = key.find('/', cut + (slash > 0 ? 1 : 0));
  }
  return key.substr(0, cut);
}

/// Share of simulated cells that a sweep simulating each distinct
/// machine once would not simulate: (simulated - distinct outcomes of
/// each workload/geometry/scheme group) / simulated. @p outcomes holds
/// every requested cell by key; cells answered by one simulation share
/// an outcome and count once.
double redundantRatio(const std::map<std::string, Outcome>& outcomes,
                      double cells_simulated) {
  std::map<std::string, std::set<Outcome>> groups;
  for (const auto& [key, o] : outcomes) groups[groupOf(key)].insert(o);
  double distinct = 0.0;
  for (const auto& [group, set] : groups) distinct += static_cast<double>(set.size());
  return cells_simulated > 0.0
             ? std::max(0.0, cells_simulated - distinct) / cells_simulated
             : 0.0;
}

/// The sweep layer's counters and costs, read from @p suite right after
/// its untraced timed @p pass over @p tasks and before anything else
/// reads the memo.
void sweepLayers(SweepExecutor& suite, const std::vector<GridTask>& tasks,
                 const RunOutput::Pass& pass, unsigned jobs, RunOutput& out) {
  wp::MetricsRegistry& m = suite.metrics();
  const double simulated =
      static_cast<double>(m.counter("cells.computed").value());
  out.layers["sweep.memo_hits"] =
      static_cast<double>(m.counter("memo.hits").value());
  out.layers["sweep.failed_attempts"] =
      static_cast<double>(m.counter("cells.failed_attempts").value());
  std::map<std::string, Outcome> outcomes;
  u64 insts = 0;
  for (const auto& [key, c] : distinctCells(tasks)) {
    const auto view = suite.tryRun(*c.p, c.g, c.spec);
    if (view.result == nullptr) continue;
    const RunResult& r = *view.result;
    outcomes[key] = {r.stats.cycles, r.stats.instructions, r.stats.retired_pc_hash,
                     r.stats.dataflow_hash, r.energy.icacheTotal(), r.energy.total()};
    insts += r.stats.instructions;
  }
  out.layers["sweep.cells_requested"] = pass.cells;
  out.layers["sweep.cells_simulated"] = simulated;
  out.layers["sweep.redundant_ratio"] = redundantRatio(outcomes, simulated);
  out.layers["sweep.parallel_efficiency"] =
      pass.cpu_s / (pass.wall_s * static_cast<double>(jobs));
  out.layers["driver.run_ms_per_cell"] =
      simulated > 0.0 ? pass.cpu_s * 1e3 / simulated : 0.0;
  out.layers["driver.guest_mips_cpu"] =
      pass.cpu_s > 0.0 ? static_cast<double>(insts) / pass.cpu_s / 1e6 : 0.0;
}

/// One fan-out pass over a freshly prepared executor, verified; returns
/// its requested cells per second. An enabled @p tracer records a span
/// for the pass, the preparation, and every job and call.
double fanOutPass(const std::vector<std::string>& names,
                  const std::function<std::vector<GridTask>(SweepExecutor&)>&
                      make_tasks,
                  const Options& opt, Tracer& tracer, RunOutput& out) {
  const int root = tracer.open("sweep.pass", 0, -1);
  const int prep = tracer.open("prepare.suite", 0, root);
  auto suite = prepareSuite(names, opt, out);
  tracer.finish(prep);
  const std::vector<GridTask> tasks = make_tasks(*suite);
  const FanOut f = fanOut(*suite, tasks, opt.jobs, tracer, root);
  tracer.finish(root);
  verifyTasks(*suite, tasks, out);
  return static_cast<double>(distinctCells(tasks).size()) / f.wall_s;
}

void addExtraSetups(const std::vector<std::string>& names, const Options& opt,
                    unsigned passes, RunOutput& out) {
  for (unsigned i = passes; i < kSetupSamples; ++i) {
    (void)prepareSuite(names, opt, out);
  }
}

// ---- fig6_grid --------------------------------------------------------

constexpr double kFig6PassSeconds = 20.0;
const u32 kSizesKb[] = {16, 32, 64};
const u32 kWays[] = {8, 16, 32};
const u32 kAreasKb[] = {16, 8, 4, 2, 1};

std::vector<SweepExecutor::Cell> fig6Grid() {
  std::vector<SweepExecutor::Cell> grid;
  for (const u32 size_kb : kSizesKb) {
    for (const u32 ways : kWays) {
      const CacheGeometry g{size_kb * 1024, 32, ways};
      grid.push_back({g, SchemeSpec::wayMemoization()});
      for (const u32 area_kb : kAreasKb) {
        grid.push_back({g, SchemeSpec::wayPlacement(area_kb * 1024)});
      }
    }
  }
  return grid;
}

std::vector<GridTask> fig6Tasks(
    SweepExecutor& suite,
    const std::map<std::string, std::vector<u8>>& expected) {
  std::vector<GridTask> tasks;
  for (const PreparedWorkload& p : suite.prepared()) {
    for (const SweepExecutor::Cell& c : fig6Grid()) {
      tasks.push_back({&p, c.icache, c.spec, &expected.at(p.name)});
    }
  }
  return tasks;
}

std::map<std::string, std::vector<u8>> expectedOutputs(
    const std::vector<std::string>& names, u64 seed) {
  std::map<std::string, std::vector<u8>> expected;
  for (const std::string& n : names) {
    expected[n] = wp::workloads::makeWorkload(n, seed)->expected(InputSize::kLarge);
  }
  return expected;
}

/// The --inject-failure cell: way-memo on the first workload with a
/// persistent harness fault, so it must quarantine and count as failed.
GridTask faultyTask(SweepExecutor& suite, const std::vector<u8>& expected) {
  SchemeSpec spec = SchemeSpec::wayMemoization();
  spec.fault.cell_fault = wp::fault::CellFault::kPersistent;
  return {&suite.prepared().front(), CacheGeometry{32 * 1024, 32, 32}, spec,
          &expected};
}

// ---- corun_switch -----------------------------------------------------

constexpr double kCorunPassSeconds = 4.0;
const std::vector<std::string>& kCorunPool = kDefaultSubset;

std::vector<GridTask> corunTasks(
    SweepExecutor& suite,
    const std::map<std::string, std::vector<u8>>& expected) {
  const std::vector<PreparedWorkload>& pool = suite.prepared();
  const SchemeSpec schemes[] = {SchemeSpec::wayPlacement(16 * 1024),
                                SchemeSpec::wayMemoization(),
                                SchemeSpec::wayPrediction()};
  std::vector<GridTask> tasks;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string& partner = pool[(i + 1) % pool.size()].name;
    for (const SchemeSpec& s : schemes) {
      for (const u64 q : {2000u, 20000u, 200000u}) {
        for (const auto policy : {wp::cache::TlbSwitchPolicy::kFlush,
                                  wp::cache::TlbSwitchPolicy::kAsidTagged}) {
          SchemeSpec spec = s;
          spec.corun_quantum = q;
          spec.corun_partners = partner;
          spec.corun_tlb = policy;
          tasks.push_back({&pool[i], CacheGeometry{32 * 1024, 32, 32}, spec,
                           &expected.at(pool[i].name + "+" + partner)});
        }
      }
    }
  }
  return tasks;
}

/// Co-run outputs are every guest's output in group order.
std::map<std::string, std::vector<u8>> corunExpected(u64 seed) {
  std::map<std::string, std::vector<u8>> solo = expectedOutputs(kCorunPool, seed);
  std::map<std::string, std::vector<u8>> expected = solo;
  for (std::size_t i = 0; i < kCorunPool.size(); ++i) {
    const std::string& a = kCorunPool[i];
    const std::string& b = kCorunPool[(i + 1) % kCorunPool.size()];
    std::vector<u8> both = solo.at(a);
    both.insert(both.end(), solo.at(b).begin(), solo.at(b).end());
    expected[a + "+" + b] = std::move(both);
  }
  return expected;
}

/// Solo equivalence: every process of a co-run must retire the same
/// instruction stream, data flow and output as its solo run, and a
/// co-run cell must retire exactly its members' solo instructions.
void verifySoloEquivalence(SweepExecutor& suite,
                           const std::vector<GridTask>& tasks,
                           const std::map<std::string, std::vector<u8>>& expected,
                           const Options& opt, RunOutput& out) {
  const CacheGeometry g{32 * 1024, 32, 32};
  const std::vector<PreparedWorkload>& pool = suite.prepared();
  const SchemeSpec wp16 = SchemeSpec::wayPlacement(16 * 1024);
  std::map<std::string, const RunResult*> solo;
  for (const PreparedWorkload& p : pool) {
    const auto view = suite.tryRun(p, g, wp16);
    if (view.quarantined) {
      out.fail("quarantined solo run of " + p.name);
      return;
    }
    solo[p.name] = view.result;
  }
  for (const GridTask& t : tasks) {
    const auto view = suite.tryRun(*t.p, t.g, t.spec);
    if (view.result != nullptr &&
        view.result->stats.instructions !=
            solo.at(t.p->name)->stats.instructions +
                solo.at(t.spec.corun_partners)->stats.instructions) {
      out.fail("co-run instruction count differs from its solo runs: " +
               SweepExecutor::keyOf(t.p->name, t.g, t.spec));
    }
  }
  struct Check {
    std::size_t primary;
    u64 quantum;
  };
  std::vector<Check> checks;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const u64 q : {2000u, 20000u, 200000u}) checks.push_back({i, q});
  }
  std::vector<std::string> verdicts(checks.size());
  parallelFor(opt.jobs, checks.size(), [&](std::size_t k) {
    const PreparedWorkload& a = pool[checks[k].primary];
    const PreparedWorkload& b = pool[(checks[k].primary + 1) % pool.size()];
    SchemeSpec spec = wp16;
    spec.corun_quantum = checks[k].quantum;
    wp::driver::Runner::CoRunExtra extra;
    (void)suite.runner().runCoRun({&a, &b}, g, spec, InputSize::kLarge,
                                  nullptr, &extra);
    const PreparedWorkload* members[] = {&a, &b};
    for (std::size_t m = 0; m < 2; ++m) {
      const RunResult& s = *solo.at(members[m]->name);
      const auto& proc = extra.processes.at(m);
      if (proc.retired_pc_hash != s.stats.retired_pc_hash ||
          proc.dataflow_hash != s.stats.dataflow_hash ||
          proc.output != expected.at(members[m]->name)) {
        verdicts[k] = "co-run process " + members[m]->name + " with " +
                      (m == 0 ? b.name : a.name) + " at quantum " +
                      std::to_string(checks[k].quantum) +
                      " diverged from its solo run";
      }
    }
  });
  for (const std::string& v : verdicts) {
    if (!v.empty()) out.fail(v);
  }
  out.attempted += checks.size();
}

}  // namespace

void runFig6Grid(const Options& opt, Tracer& tracer, RunOutput& out) {
  const std::vector<std::string>& names = wp::workloads::suiteNames();
  const std::map<std::string, std::vector<u8>> expected =
      expectedOutputs(names, opt.seed);
  const auto make_tasks = [&](SweepExecutor& s) { return fig6Tasks(s, expected); };
  const unsigned passes = opt.trace ? 1 : passesFor(opt.seconds, kFig6PassSeconds);
  addExtraSetups(names, opt, passes, out);

  std::unique_ptr<SweepExecutor> suite;
  for (unsigned pass = 0; pass < passes; ++pass) {
    suite.reset();
    suite = prepareSuite(names, opt, out);
    const std::vector<GridTask> tasks = make_tasks(*suite);
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    suite->runAll(fig6Grid());
    RunOutput::Pass p;
    p.wall_s = nowSeconds() - t0;
    p.cpu_s = processCpuSeconds() - cpu0;
    p.cells = static_cast<double>(distinctCells(tasks).size());
    out.passes.push_back(p);
    if (opt.trace) sweepLayers(*suite, tasks, p, opt.jobs, out);
    verifyTasks(*suite, tasks, out);
  }

  // Every cell's report (guest fields and per-cell wall time), for
  // run.py's golden check, latency samples and paper gap.
  const std::string report_dir = opt.work_dir + "/fig6_reports";
  std::filesystem::remove_all(report_dir);
  std::filesystem::create_directories(report_dir);
  {
    std::ofstream report(report_dir + "/fig6_grid.json");
    suite->writeJsonReport(report);
  }
  out.extra.add("fig6_reports", report_dir);

  if (opt.inject_failure) {
    verifyTasks(*suite, {faultyTask(*suite, expected.at(names.front()))}, out);
  }
  out.peak_rss_mb = peakRssMb();
  suite.reset();

  if (opt.trace) {
    // runAll cannot carry spans, so both sides of the overhead are the
    // harness fan-out, over the default three-workload subset of the
    // grid to keep the traced run short.
    Tracer untraced(false);
    const double untraced_cps =
        fanOutPass(kDefaultSubset, make_tasks, opt, untraced, out);
    const double traced_cps = fanOutPass(kDefaultSubset, make_tasks, opt, tracer, out);
    out.layers["trace.overhead_pct"] =
        (untraced_cps - traced_cps) / untraced_cps * 100.0;
    runLedger(opt, names, tracer, out);
  }
}

void runCorunSwitch(const Options& opt, Tracer& tracer, RunOutput& out) {
  const std::map<std::string, std::vector<u8>> expected = corunExpected(opt.seed);
  const auto make_tasks = [&](SweepExecutor& s) { return corunTasks(s, expected); };
  const unsigned passes = opt.trace ? 1 : passesFor(opt.seconds, kCorunPassSeconds);
  addExtraSetups(kCorunPool, opt, passes, out);
  out.latency_tail_pct = 95.0;  // 54 cells a pass: p99 has too few beyond it

  Tracer untraced(false);
  std::unique_ptr<SweepExecutor> suite;
  std::vector<GridTask> tasks;
  for (unsigned pass = 0; pass < passes; ++pass) {
    suite.reset();
    suite = prepareSuite(kCorunPool, opt, out);
    tasks = make_tasks(*suite);
    const double cpu0 = processCpuSeconds();
    const FanOut f = fanOut(*suite, tasks, opt.jobs, untraced, -1);
    RunOutput::Pass p;
    p.wall_s = f.wall_s;
    p.cpu_s = processCpuSeconds() - cpu0;
    p.cells = static_cast<double>(distinctCells(tasks).size());
    out.passes.push_back(p);
    out.latency_ms.insert(out.latency_ms.end(), f.cell_ms.begin(),
                          f.cell_ms.end());
    if (opt.trace) sweepLayers(*suite, tasks, p, opt.jobs, out);
    verifyTasks(*suite, tasks, out);
  }
  verifySoloEquivalence(*suite, tasks, expected, opt, out);
  if (opt.inject_failure) {
    verifyTasks(*suite,
                {faultyTask(*suite, expected.at(suite->prepared().front().name))},
                out);
  }
  const double untraced_cps = out.passes.back().cells / out.passes.back().wall_s;
  out.peak_rss_mb = peakRssMb();
  suite.reset();

  if (opt.trace) {
    const double traced_cps = fanOutPass(kCorunPool, make_tasks, opt, tracer, out);
    out.layers["trace.overhead_pct"] =
        (untraced_cps - traced_cps) / untraced_cps * 100.0;
    runLedger(opt, kCorunPool, tracer, out);
  }
}

int runSelfTests() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  // Four WP cells of one group, two distinct machines, plus a baseline.
  const Outcome a{10, 5, 1, 1, 1.0, 2.0}, b{12, 5, 2, 1, 1.5, 2.5};
  const std::map<std::string, Outcome> outcomes = {
      {"crc/32768/32/32/1/1024/x", a}, {"crc/32768/32/32/1/2048/x", a},
      {"crc/32768/32/32/1/4096/x", a}, {"crc/32768/32/32/1/8192/x", b},
      {"crc/32768/32/32/0/0/x", a}};
  // Every requested cell simulated: 2 of the 5 repeat a machine.
  expect(redundantRatio(outcomes, 5.0) == 2.0 / 5.0,
         "redundant_ratio counts the repeats among simulated cells");
  // Each distinct machine simulated once and the repeats answered from
  // it: nothing is redundant.
  expect(redundantRatio(outcomes, 3.0) == 0.0,
         "redundant_ratio is 0 once each distinct machine is simulated once");
  expect(redundantRatio({}, 0.0) == 0.0, "redundant_ratio of nothing is 0");
  expect(groupOf("crc/32768/32/32/1/1024/x") == "crc/32768/32/32/1",
         "a cell's group is its first five key fields");
  std::fprintf(stderr, "wpbench self-tests: %d failed\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace wpbench
