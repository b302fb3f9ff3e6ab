// wpbench_harness: runs one benchmark workload and writes its raw
// measurements as one JSON object for run.py, which derives the reported
// metrics, checks the golden recordings and prints the result line.
//
//   wpbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                   --jobs J --work-dir DIR --serve-bin PATH --out FILE
//                   [--inject-failure]
//   wpbench_harness --self-test
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.hpp"

namespace {

using namespace wpbench;

int usage() {
  std::fprintf(stderr,
               "usage: wpbench_harness --workload fig6_grid|corun_switch|"
               "serve_mixed --seed N --seconds S --trace 0|1 --jobs J "
               "--work-dir DIR --serve-bin PATH --out FILE "
               "[--inject-failure]\n");
  return 2;
}

std::string render(const Options& opt, const RunOutput& out, const Tracer& tracer) {
  JsonObject o;
  o.add("workload", opt.workload)
      .add("seed", static_cast<double>(opt.seed))
      .add("jobs", opt.jobs)
      .raw("setup_s", numList(out.setup_s));
  std::string passes = "[";
  for (std::size_t i = 0; i < out.passes.size(); ++i) {
    const RunOutput::Pass& p = out.passes[i];
    passes += (i > 0 ? ", " : "") + JsonObject()
                                        .add("wall_s", p.wall_s)
                                        .add("cells", p.cells)
                                        .add("cpu_s", p.cpu_s)
                                        .render();
  }
  o.raw("passes", passes + "]")
      .raw("latency_ms", numList(out.latency_ms))
      .add("latency_tail_pct", out.latency_tail_pct)
      .add("peak_rss_mb", out.peak_rss_mb)
      .add("attempted", static_cast<double>(out.attempted))
      .add("failed", static_cast<double>(out.failed));
  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + quoted(out.failures[i]);
  }
  o.raw("failures", failures + "]");
  JsonObject layers;
  for (const auto& [name, value] : out.layers) layers.add(name, value);
  o.raw("layers", layers.render());
  JsonObject self;
  for (const auto& [name, secs] : tracer.selfSeconds()) self.add(name, secs);
  o.raw("self_seconds", self.render());
  o.raw("extra", out.extra.render());
  return o.render();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return runSelfTests();
  Options opt;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() == "1";
      else if (a == "--jobs") opt.jobs = static_cast<unsigned>(std::stoul(value()));
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--serve-bin") opt.serve_bin = value();
      else if (a == "--out") out_path = value();
      else if (a == "--inject-failure") opt.inject_failure = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage();
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() || out_path.empty() ||
      opt.jobs == 0) {
    return usage();
  }
  std::filesystem::create_directories(opt.work_dir);

  Tracer tracer(opt.trace);
  RunOutput out;
  try {
    if (opt.workload == "fig6_grid") {
      runFig6Grid(opt, tracer, out);
    } else if (opt.workload == "corun_switch") {
      runCorunSwitch(opt, tracer, out);
    } else if (opt.workload == "serve_mixed") {
      runServeMixed(opt, tracer, out);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n", opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s workload aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) tracer.write(opt.work_dir + "/trace.jsonl");
  std::ofstream(out_path) << render(opt, out, tracer) << "\n";
  return 0;
}
