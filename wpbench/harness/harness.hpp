// The benchmark's workloads and its per-layer ledger. Each entry point
// fills a RunOutput; main.cpp renders it for run.py.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace wpbench {

/// Cold in-process sweep of the full Figure 6 grid, one runAll per pass.
void runFig6Grid(const Options& opt, Tracer& tracer, RunOutput& out);

/// Cold co-run grid in the bench_multiprog shape, fanned out by the
/// harness (each primary has its own partner, which runAll cannot say).
void runCorunSwitch(const Options& opt, Tracer& tracer, RunOutput& out);

/// A wp_serve daemon under a closed loop of hit/store/fresh evals.
void runServeMixed(const Options& opt, Tracer& tracer, RunOutput& out);

/// Workload-independent layer costs (traced runs only): host ns per
/// guest instruction per layer on a reference workload, replay fidelity,
/// store and isolation costs, and preparation of @p prepare_names.
void runLedger(const Options& opt, const std::vector<std::string>& prepare_names,
               Tracer& tracer, RunOutput& out);

/// Unit checks of the harness's own derivations (sweep.redundant_ratio);
/// returns the process exit code.
int runSelfTests();

}  // namespace wpbench
