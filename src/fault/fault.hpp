// Fault injection & resilience: demonstrates that every piece of
// way-placement state is a *hint*, never a correctness dependency.
//
// The paper's safety argument (§4.1) is that a wrong way-hint bit or a
// wrong per-I-TLB-entry way-placement bit costs at most a cycle or a
// lost energy saving — the architectural result is untouched. The
// FaultInjector makes that claim testable: on a seeded, deterministic
// schedule it flips the way-hint bit, flips/clears I-TLB way-placement
// bits, scrambles way-memoization links and per-set MRU state, forces
// spurious way-placement-area resizes, and damages training profiles.
// The resilience harness (tests/test_fault.cpp, bench/resilience_sweep)
// then asserts the *architectural-equivalence invariant*: the retired
// instruction stream and the workload outputs of a faulted run are
// bit-identical to the fault-free run of the same scheme, while energy
// and delay degrade boundedly.
#pragma once

#include <string>
#include <string_view>

#include "cache/fetch_path.hpp"
#include "profile/profiler.hpp"
#include "support/rng.hpp"

namespace wp::fault {

/// Damage applied to a freshly collected training profile before the
/// layout pass consumes it.
enum class ProfileFault : u8 {
  kNone,
  kTruncated,  ///< second half of the block counts dropped (partial dump)
  kScrambled,  ///< counts permuted across blocks (stale/mismatched dump)
  kEmpty,      ///< no counts at all (missing dump)
  kBogusIds,   ///< counts for block ids the module does not contain
};

[[nodiscard]] const char* profileFaultName(ProfileFault f);

/// Harness-level cell fault: fails whole sweep cells to exercise the
/// supervisor's retry-vs-quarantine paths. Unlike every other fault
/// class this never touches the simulated machine — a healed attempt's
/// results are bit-identical to a never-faulted run of the same cell.
///
/// kTransient/kPersistent throw SimError (a failure the in-process
/// supervisor can catch). kCrash and kHang are *hostile*: the attempt
/// dies by SIGKILL or wedges forever, exactly like a SIGSEGV'd or
/// runaway simulator. They are survivable only under WP_ISOLATE=1,
/// where each attempt runs in a forked worker process — which is the
/// point: they death-test the process-isolation crash domain.
enum class CellFault : u8 {
  kNone,
  kTransient,   ///< early attempts fail, a retry heals the cell
  kPersistent,  ///< every attempt fails — the cell must quarantine
  kCrash,       ///< attempt dies by SIGKILL (failures = 0: every attempt)
  kHang,        ///< attempt never returns; only a watchdog kill ends it
};

[[nodiscard]] const char* cellFaultName(CellFault f);

/// What to inject, and how often. Classes that do not apply to the
/// running scheme (e.g. link scrambling without a memoizer) are skipped
/// automatically, so one spec can be swept across every scheme.
struct FaultSpec {
  u64 period = 0;  ///< fetches between injected events (0 = injector off)
  u64 seed = 0;    ///< mixed with the experiment seed for the schedule

  bool flip_way_hint = false;       ///< invert the global way-hint bit
  bool flip_tlb_wp_bit = false;     ///< invert one I-TLB entry's WP bit
  bool clear_tlb_wp_bits = false;   ///< burst-clear every cached WP bit
  bool scramble_memo_links = false; ///< rot way-memoization links
  bool scramble_mru = false;        ///< corrupt per-set MRU state
  bool resize_storm = false;        ///< spurious WP-area resize storms

  /// Harness-level cell fault (see CellFault). Key material for the
  /// sweep memo but invisible to the simulated machine.
  CellFault cell_fault = CellFault::kNone;
  /// Failing attempts before kTransient/kCrash heal; 0 means "every
  /// attempt" for kCrash (the persistent-crash form). Ignored by kHang.
  u32 cell_fault_failures = 1;

  [[nodiscard]] bool cellFaultEnabled() const {
    return cell_fault != CellFault::kNone;
  }

  [[nodiscard]] bool runtimeEnabled() const {
    return period != 0 &&
           (flip_way_hint || flip_tlb_wp_bit || clear_tlb_wp_bits ||
            scramble_memo_links || scramble_mru || resize_storm);
  }

  /// Every runtime fault class at once — the adversarial default.
  [[nodiscard]] static FaultSpec allClasses(u64 period, u64 seed = 0);
};

/// Counts of what the injector actually did (per class).
struct InjectionStats {
  u64 events = 0;           ///< scheduled injection points that fired
  u64 hint_flips = 0;
  u64 tlb_bit_flips = 0;
  u64 tlb_bits_cleared = 0;
  u64 links_scrambled = 0;
  u64 mru_scrambles = 0;
  u64 resizes = 0;
};

/// Deterministic fault injector: attaches to a FetchPath as its fault
/// hook and, every FaultSpec::period fetches, injects one randomly
/// chosen enabled-and-applicable fault class.
class FaultInjector final : public cache::FetchFaultHook {
 public:
  FaultInjector(const FaultSpec& spec, u64 experiment_seed);

  /// Registers on @p path and records the configured WP area so resize
  /// storms can restore it.
  void attach(cache::FetchPath& path);

  void onFetch(cache::FetchPath& path) override;

  [[nodiscard]] const InjectionStats& stats() const { return stats_; }

 private:
  void injectOne(cache::FetchPath& path);

  FaultSpec spec_;
  Rng rng_;
  u64 fetches_ = 0;
  u32 original_area_ = 0;
  InjectionStats stats_;
};

/// Applies @p kind damage to @p prof, deterministically under @p rng.
/// Pair with profile::validate + the driver's original-layout fallback
/// to show corrupt profiles degrade energy, never correctness.
void corruptProfile(profile::ProfileResult& prof, ProfileFault kind, Rng& rng);

/// Fails 0-based attempt @p attempt of a cell when @p kind says so.
/// kTransient throws SimError for the first @p failures attempts;
/// kPersistent always throws. kCrash raises SIGKILL for the first
/// @p failures attempts (0 = every attempt) and kHang blocks forever —
/// both are survivable only when the attempt runs in a forked worker
/// (WP_ISOLATE=1). Deterministic in its arguments — the supervisor's
/// retry schedule replays identically from the seed. @p origin names
/// the fault's source ("spec" or "WP_CELL_FAULT") in the thrown
/// message.
void injectCellFault(CellFault kind, u32 failures, unsigned attempt,
                     const char* origin);

/// The FaultSpec-level form: injectCellFault(spec.cell_fault, ...).
void injectCellFault(const FaultSpec& spec, unsigned attempt);

/// Parses a cell-fault spec string — "transient[:N]", "persistent",
/// "crash[:N]" or "hang" — into (@p kind, @p failures). Never exits:
/// on garbage it returns false with @p error set to a message naming
/// @p knob (the environment variable or request field the spec came
/// from), so callers choose their own fate — SupervisorConfig::fromEnv
/// exits 1 under the strict WP_* policy, while the sweep service turns
/// the same message into a tagged error reply instead of dying.
[[nodiscard]] bool parseCellFault(std::string_view spec,
                                  std::string_view knob, CellFault& kind,
                                  u32& failures, std::string& error);

}  // namespace wp::fault
