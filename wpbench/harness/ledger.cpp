// The per-layer ledger of a traced run: host cost of each simulator
// layer on one reference workload (crc, large input, 32 KB/32-way/32 B
// I-cache), measured by driving each layer's public entry point alone.
//
// A functional pass (Core::step over BlockCache batches, as the block
// engine dispatches them) records three streams: the fetchLine calls,
// the D-cache addresses and the retired instructions. Replaying them
// through FetchPath, DataCache and TimingModel times each layer alone;
// before any of those figures is reported, the replayed counters must
// equal Processor::run's exactly, or the replay is timing another
// workload and the run fails. The same section times preparation, the
// energy model, the guest scheduler, the result store and process
// isolation.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <type_traits>

#include "driver/result_store.hpp"
#include "driver/sweep.hpp"
#include "harness.hpp"
#include "layout/strategy.hpp"
#include "profile/profiler.hpp"
#include "sim/block_cache.hpp"
#include "sim/scheduler.hpp"
#include "workloads/workload.hpp"

namespace wpbench {
namespace {

namespace cache = wp::cache;
namespace sim = wp::sim;
using wp::driver::PreparedWorkload;
using wp::driver::Runner;
using wp::driver::SchemeSpec;
using wp::workloads::InputSize;

constexpr const char* kReference = "crc";
constexpr int kReps = 5;
const cache::CacheGeometry kGeometry{32 * 1024, 32, 32};

/// Median seconds of kReps runs of @p body, each recorded as a span.
/// @p setup runs before each rep, outside the span.
template <typename Setup, typename Body>
double timedReps(Tracer& tracer, const std::string& name, int parent,
                 Setup&& setup, Body&& body) {
  std::vector<double> secs;
  for (int rep = 0; rep < kReps; ++rep) {
    auto state = setup();
    const int span = tracer.open(name, static_cast<u64>(rep), parent);
    const double t0 = nowSeconds();
    body(state);
    secs.push_back(nowSeconds() - t0);
    tracer.finish(span);
  }
  return median(secs);
}

/// A guest program loaded and ready: memory with inputs, core, blocks.
struct Loaded {
  std::unique_ptr<wp::mem::Memory> memory;
  std::unique_ptr<sim::Core> core;
};

Loaded load(const PreparedWorkload& p, const wp::mem::Image& image) {
  Loaded l;
  l.memory = std::make_unique<wp::mem::Memory>();
  image.loadInto(*l.memory);
  p.workload->prepare(*l.memory, InputSize::kLarge);
  l.core = std::make_unique<sim::Core>(image, *l.memory);
  return l;
}

struct LineEvent {
  u32 pc;
  u32 n;
  cache::FetchFlow flow;
};
constexpr u8 kTaken = 1, kMem = 2, kLineStart = 4;
struct InstEvent {
  u32 pc;
  u32 target;
  u8 flags;
};

/// The three recorded streams of one image's functional run.
struct Streams {
  Loaded guest;  ///< keeps the decoded code the timing replay reads
  std::unique_ptr<sim::BlockCache> blocks;
  std::vector<LineEvent> lines;
  std::vector<u64> data;  ///< address << 1 | is_store
  std::vector<InstEvent> insts;
  std::vector<u8> output;
};

Streams record(const PreparedWorkload& p, const wp::mem::Image& image) {
  Streams s;
  s.guest = load(p, image);
  sim::Core& core = *s.guest.core;
  s.blocks = std::make_unique<sim::BlockCache>(core, kGeometry.line_bytes);
  sim::CoreState st = core.initialState();
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  while (!st.halted) {
    const u32 n = s.blocks->blockLenAt(st.pc);
    s.lines.push_back({st.pc, n, flow});
    for (u32 i = 0; i < n; ++i) {
      const u32 pc = st.pc;
      const sim::StepInfo info = core.step(st);
      u8 flags = i == 0 ? kLineStart : 0;
      if (info.taken) flags |= kTaken;
      if (info.mem_addr.has_value()) {
        flags |= kMem;
        s.data.push_back((static_cast<u64>(*info.mem_addr) << 1) |
                         (wp::isa::isStore(info.inst.op) ? 1u : 0u));
      }
      s.insts.push_back({pc, info.next_pc, flags});
      if (info.control_transfer && info.taken) {
        flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                             : cache::FetchFlow::kTakenDirect;
      } else {
        flow = cache::FetchFlow::kSequential;
      }
    }
  }
  s.output = p.workload->output(*s.guest.memory);
  return s;
}

template <typename T>
bool sameBytes(const T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

u32 clampToImage(u32 area, const wp::mem::Image& image) {
  const u32 pages = static_cast<u32>(
      (image.code.size() + wp::mem::kPageBytes - 1) / wp::mem::kPageBytes);
  return std::min(area, pages * wp::mem::kPageBytes);
}

struct SchemeCase {
  const char* label;
  SchemeSpec spec;
};

/// Host cost of one scheme's run, per layer.
struct SchemeCost {
  double processor_ns_per_inst = 0.0;
  double fetch_ns_per_line = 0.0;
  double lines_per_inst = 0.0;
  double dcache_ns_per_access = 0.0;
  double accesses_per_inst = 0.0;
  double timing_ns_per_inst = 0.0;
};

/// Replays one scheme's streams through each layer, checks the counters
/// against Processor::run, and returns the per-layer timings.
SchemeCost schemeLedger(const Runner& runner, const PreparedWorkload& p,
                        const SchemeCase& sc, Tracer& tracer, int root,
                        RunOutput& out) {
  const wp::mem::Image& image = p.imageFor(sc.spec.layout);
  sim::MachineConfig machine = runner.machineFor(kGeometry, sc.spec);
  if (machine.fetch.scheme == cache::Scheme::kWayPlacement) {
    machine.fetch.wp_area_bytes = clampToImage(machine.fetch.wp_area_bytes, image);
  }
  const Streams s = record(p, image);
  const std::string label = sc.label;
  const double insts = static_cast<double>(s.insts.size());

  // The whole processor, for the reference counters and the residual.
  sim::RunStats ref;
  const double proc_s = timedReps(
      tracer, "sim.processor." + label, root,
      [&] { return load(p, image); },
      [&](Loaded& l) {
        sim::Processor proc(machine, image, *l.memory);
        ref = proc.run();
      });

  std::vector<u32> first_cycles(s.lines.size());
  cache::CacheStats icache;
  cache::TlbStats itlb;
  cache::FetchStats fetch;
  u64 squashed = 0, flash_clears = 0;
  const double fetch_s = timedReps(
      tracer, "cache.fetch." + label, root,
      [&] { return std::make_unique<cache::FetchPath>(machine.fetch); },
      [&](std::unique_ptr<cache::FetchPath>& fp) {
        for (std::size_t i = 0; i < s.lines.size(); ++i) {
          first_cycles[i] =
              fp->fetchLine(s.lines[i].pc, s.lines[i].flow, s.lines[i].n);
        }
        icache = fp->cacheStats();
        itlb = fp->tlbStats();
        fetch = fp->fetchStats();
        squashed = fp->squashedProbes();
        flash_clears = fp->linkFlashClears();
      });

  std::vector<u32> mem_cycles(s.data.size());
  cache::CacheStats dstats;
  const double dcache_s = timedReps(
      tracer, "cache.dcache." + label, root,
      [&] { return std::make_unique<cache::DataCache>(machine.dcache); },
      [&](std::unique_ptr<cache::DataCache>& dc) {
        for (std::size_t i = 0; i < s.data.size(); ++i) {
          const u32 addr = static_cast<u32>(s.data[i] >> 1);
          mem_cycles[i] = (s.data[i] & 1) != 0 ? dc->store(addr) : dc->load(addr);
        }
        dstats = dc->stats();
      });

  const std::vector<wp::isa::Instruction>& decoded = s.guest.core->decoded();
  const u32 base = s.guest.core->codeBase();
  u64 cycles = 0;
  wp::pipeline::BranchStats branches;
  const double timing_s = timedReps(
      tracer, "pipeline.timing." + label, root,
      [&] { return std::make_unique<wp::pipeline::TimingModel>(machine.timing); },
      [&](std::unique_ptr<wp::pipeline::TimingModel>& tm) {
        std::size_t line = 0, access = 0;
        for (const InstEvent& e : s.insts) {
          u32 fetch_cycles = 1;
          if ((e.flags & kLineStart) != 0) fetch_cycles = first_cycles[line++];
          const u32 mem = (e.flags & kMem) != 0 ? mem_cycles[access++] : 0;
          tm->onInstruction(decoded[(e.pc - base) / 4], s.blocks->regUseAt(e.pc),
                            e.pc, fetch_cycles, mem, (e.flags & kTaken) != 0,
                            e.target);
        }
        cycles = tm->cycles();
        branches = tm->branchStats();
      });

  const bool faithful =
      ref.instructions == s.insts.size() && sameBytes(ref.icache, icache) &&
      sameBytes(ref.itlb, itlb) && sameBytes(ref.fetch, fetch) &&
      ref.squashed_probes == squashed && ref.link_flash_clears == flash_clears &&
      sameBytes(ref.dcache, dstats) && ref.cycles == cycles &&
      sameBytes(ref.branches, branches) &&
      s.output == p.workload->expected(InputSize::kLarge);
  ++out.attempted;
  if (!faithful) {
    out.fail(std::string("replay fidelity: the recorded streams of ") +
             kReference + " under " + label +
             " do not reproduce Processor::run's counters");
  }

  const double lines = static_cast<double>(s.lines.size());
  const double accesses = static_cast<double>(s.data.size());
  return {proc_s * 1e9 / insts, fetch_s * 1e9 / lines,    lines / insts,
          dcache_s * 1e9 / accesses, accesses / insts, timing_s * 1e9 / insts};
}

/// Bare functional core: Core::step from reset to HALT.
double coreNsPerInst(const PreparedWorkload& p, Tracer& tracer, int root) {
  const wp::mem::Image& image = p.imageFor("original");
  u64 insts = 0;
  const double secs = timedReps(
      tracer, "sim.core", root, [&] { return load(p, image); },
      [&](Loaded& l) {
        sim::CoreState st = l.core->initialState();
        u64 n = 0;
        while (!st.halted) {
          (void)l.core->step(st);
          ++n;
        }
        insts = n;
      });
  return secs * 1e9 / static_cast<double>(insts);
}

/// GuestScheduler::run of crc + sha at a 20k quantum under WP 16 KB.
double corunNsPerInst(const Runner& runner, const PreparedWorkload& a,
                      const PreparedWorkload& b, Tracer& tracer, int root) {
  const SchemeSpec spec = SchemeSpec::wayPlacement(16 * 1024);
  const sim::MachineConfig machine = runner.machineFor(kGeometry, spec);
  sim::SchedulerConfig sc;
  sc.quantum = 20000;
  u64 insts = 0;
  const double secs = timedReps(
      tracer, "sim.corun", root,
      [&] {
        auto sched = std::make_unique<sim::GuestScheduler>(machine, sc);
        for (const PreparedWorkload* pw : {&a, &b}) {
          const wp::mem::Image& image = pw->imageFor(spec.layout);
          const u32 asid = sched->addProcess(
              pw->name, image, clampToImage(spec.wp_area_bytes, image));
          pw->workload->prepare(sched->memoryOf(asid), InputSize::kLarge);
        }
        return sched;
      },
      [&](std::unique_ptr<sim::GuestScheduler>& sched) {
        insts = sched->run().combined.instructions;
      });
  return secs * 1e9 / static_cast<double>(insts);
}

/// Mean microseconds of one FetchPath::switchProcess, with a slice of the
/// recorded line stream refilling the cache between switches.
double switchMicros(const Runner& runner, const PreparedWorkload& p,
                    Tracer& tracer, int root) {
  const SchemeSpec spec = SchemeSpec::wayPlacement(16 * 1024);
  const wp::mem::Image& image = p.imageFor(spec.layout);
  const u32 area = clampToImage(spec.wp_area_bytes, image);
  const Streams s = record(p, image);
  const int span = tracer.open("cache.switch", 0, root);
  double total = 0.0;
  unsigned calls = 0;
  for (const auto policy :
       {cache::TlbSwitchPolicy::kFlush, cache::TlbSwitchPolicy::kAsidTagged}) {
    cache::FetchPath fp(runner.machineFor(kGeometry, spec).fetch);
    fp.switchProcess(0, area, policy);
    std::size_t at = 0;
    for (unsigned k = 0; k < 1000; ++k) {
      for (unsigned i = 0; i < 256; ++i, at = (at + 1) % s.lines.size()) {
        (void)fp.fetchLine(s.lines[at].pc, s.lines[at].flow, s.lines[at].n);
      }
      const double t0 = nowSeconds();
      fp.switchProcess((k + 1) % 2, area, policy);
      total += nowSeconds() - t0;
      ++calls;
    }
  }
  tracer.finish(span);
  return total * 1e6 / calls;
}

void prepareLedger(const std::vector<std::string>& names, u64 seed,
                   Tracer& tracer, int root, RunOutput& out) {
  double build = 0.0, prof = 0.0, lay = 0.0;
  for (const std::string& name : names) {
    int span = tracer.open("prepare.build", 0, root);
    double t0 = nowSeconds();
    auto workload = wp::workloads::makeWorkload(name, seed);
    wp::ir::Module module = workload->build();
    build += nowSeconds() - t0;
    tracer.finish(span);

    const wp::mem::Image original =
        wp::layout::runPipeline(module, "original").image;
    wp::mem::Memory memory;
    original.loadInto(memory);
    workload->prepare(memory, InputSize::kSmall);
    span = tracer.open("prepare.profile", 0, root);
    t0 = nowSeconds();
    const wp::profile::ProfileResult result =
        wp::profile::profileImage(original, memory);
    prof += nowSeconds() - t0;
    tracer.finish(span);
    const bool usable = !wp::profile::validate(module, result).has_value();
    if (usable) wp::profile::annotate(module, result);

    span = tracer.open("prepare.layout", 0, root);
    t0 = nowSeconds();
    for (const wp::layout::LayoutStrategy* s : wp::layout::strategies()) {
      if (s->needs_profile && !usable) continue;
      (void)wp::layout::runPipeline(module, *s, seed);
    }
    lay += nowSeconds() - t0;
    tracer.finish(span);
  }
  out.layers["prepare.build_ms"] = build * 1e3;
  out.layers["prepare.profile_ms"] = prof * 1e3;
  out.layers["prepare.layout_ms"] = lay * 1e3;
}

/// Publish (with fsync) and verified re-open of records in a private store.
void storeLedger(const Options& opt, const wp::driver::RunResult& result,
                 Tracer& tracer, int root, RunOutput& out) {
  const std::string dir = opt.work_dir + "/ledger_store";
  std::filesystem::remove_all(dir);
  wp::driver::ResultStore::Config config;
  config.dir = dir;
  wp::MetricsRegistry registry;
  wp::driver::ResultStore store(config, opt.seed, registry, nullptr);
  constexpr unsigned kRecords = 40;
  std::vector<double> put_s, open_s;
  for (unsigned k = 0; k < kRecords; ++k) {
    const std::string key = "ledger/" + std::to_string(k);
    auto miss = store.open(key, 0x5eed + k);
    const int span = tracer.open("store.put", k, root);
    const double t0 = nowSeconds();
    store.put(miss.lease, key, 0x5eed + k, result, 0.0);
    put_s.push_back(nowSeconds() - t0);
    tracer.finish(span);
  }
  for (unsigned k = 0; k < kRecords; ++k) {
    const std::string key = "ledger/" + std::to_string(k);
    const int span = tracer.open("store.open", k, root);
    const double t0 = nowSeconds();
    const auto hit = store.open(key, 0x5eed + k);
    open_s.push_back(nowSeconds() - t0);
    tracer.finish(span);
    ++out.attempted;
    if (!hit.record.has_value()) out.fail("store: published record " + key + " did not verify");
  }
  out.layers["store.put_ms"] = median(put_s) * 1e3;
  out.layers["store.open_us"] = median(open_s) * 1e6;
  std::filesystem::remove_all(dir);
}

/// Extra wall time per cell when every cell attempt runs in a forked
/// worker (WP_ISOLATE=1), on a five-cell grid of the reference workload.
double isolateMsPerCell(const Options& opt, Tracer& tracer, int root) {
  const cache::CacheGeometry g = kGeometry;
  const std::vector<wp::driver::SweepExecutor::Cell> grid = {
      {g, SchemeSpec::wayMemoization()},
      {g, SchemeSpec::wayPrediction()},
      {g, SchemeSpec::wayPlacement(16 * 1024)},
      {g, SchemeSpec::wayPlacement(1024)}};
  const auto wall = [&](bool isolate) {
    if (isolate) ::setenv("WP_ISOLATE", "1", 1);
    wp::driver::SweepExecutor suite({kReference}, wp::energy::EnergyParams{},
                                    opt.seed, 1);
    ::unsetenv("WP_ISOLATE");
    const int span = tracer.open(isolate ? "driver.isolated" : "driver.inproc",
                                 0, root);
    const double t0 = nowSeconds();
    suite.runAll(grid);
    const double secs = nowSeconds() - t0;
    tracer.finish(span);
    return secs;
  };
  const double cells = static_cast<double>(grid.size() + 1);
  std::vector<double> extra;
  for (int rep = 0; rep < 3; ++rep) extra.push_back(wall(true) - wall(false));
  return median(extra) * 1e3 / cells;
}

}  // namespace

void runLedger(const Options& opt, const std::vector<std::string>& prepare_names,
               Tracer& tracer, RunOutput& out) {
  const int root = tracer.open("ledger", 0, -1);
  prepareLedger(prepare_names, opt.seed, tracer, root, out);

  const Runner runner(wp::energy::EnergyParams{}, opt.seed);
  const PreparedWorkload crc = runner.prepare(kReference);
  const PreparedWorkload sha = runner.prepare("sha");

  const SchemeCase cases[] = {
      {"baseline", SchemeSpec::baseline()},
      {"way_placement", SchemeSpec::wayPlacement(16 * 1024)},
      {"way_memo", SchemeSpec::wayMemoization()},
  };
  // The D-cache and timing figures are means over the three schemes; the
  // residual is what the processor spends beyond its layers, averaged
  // the same way.
  SchemeCost mean;
  double residual = 0.0;
  const double n = std::size(cases);
  const double core = coreNsPerInst(crc, tracer, root);
  for (const SchemeCase& sc : cases) {
    const SchemeCost c = schemeLedger(runner, crc, sc, tracer, root, out);
    const std::string l = sc.label;
    out.layers["sim.processor_ns_per_inst." + l] = c.processor_ns_per_inst;
    out.layers["cache.fetch_ns_per_line." + l] = c.fetch_ns_per_line;
    mean.dcache_ns_per_access += c.dcache_ns_per_access / n;
    mean.timing_ns_per_inst += c.timing_ns_per_inst / n;
    residual += (c.processor_ns_per_inst - c.fetch_ns_per_line * c.lines_per_inst -
                 c.dcache_ns_per_access * c.accesses_per_inst -
                 c.timing_ns_per_inst - core) / n;
    if (l == "baseline") out.layers["cache.lines_per_inst"] = c.lines_per_inst;
  }
  out.layers["sim.core_ns_per_inst"] = core;
  out.layers["cache.dcache_ns_per_access"] = mean.dcache_ns_per_access;
  out.layers["pipeline.timing_ns_per_inst"] = mean.timing_ns_per_inst;
  out.layers["sim.loop_residual_ns_per_inst"] = residual;
  out.layers["sim.corun_ns_per_inst"] = corunNsPerInst(runner, crc, sha, tracer, root);
  out.layers["cache.switch_us"] = switchMicros(runner, crc, tracer, root);

  // The energy model alone: Processor::price of one finished run.
  const wp::driver::RunResult priced = runner.run(crc, kGeometry, SchemeSpec::baseline());
  const sim::MachineConfig machine = runner.machineFor(kGeometry, SchemeSpec::baseline());
  constexpr int kPrices = 20000;
  double sink = 0.0;
  const int span = tracer.open("energy.price", 0, root);
  const double t0 = nowSeconds();
  for (int i = 0; i < kPrices; ++i) {
    sink += sim::Processor::price(runner.energyModel(), machine, priced.stats).total();
  }
  out.layers["energy.price_us_per_cell"] = (nowSeconds() - t0) * 1e6 / kPrices;
  tracer.finish(span);
  if (!(sink > 0.0)) out.fail("energy: priced a run to zero");

  storeLedger(opt, priced, tracer, root, out);
  out.layers["driver.isolate_ms_per_cell"] = isolateMsPerCell(opt, tracer, root);
  tracer.finish(root);
}

}  // namespace wpbench
