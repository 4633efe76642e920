// LP-ownership model: classify every piece of mutable simulation state by
// which execution context of the conservative parallel DES may touch it, and
// enforce the classification with two independent legs.
//
// The parallel simulator (net/simulator.h) is correct only because every
// logical process (LP) touches nothing but its own state inside a lookahead
// window; cross-LP effects are confined to the staged merge at the window
// barrier and to serial instants of the global stream. TSan cannot see that
// discipline: the window barrier's release/acquire pair makes a rack-LP event
// reading a spine-LP's table "happens-before clean", yet it is still a
// determinism-breaking logical race. This header makes the ownership rule a
// machine-checked property instead of a convention:
//
//   NC_LP_OWNED   Touched only by the owning node's LP inside windows (and by
//                 the coordinator in serial instants, which are the sanctioned
//                 cross-LP mechanism). The common case: node counters, queues,
//                 per-node RNGs, switch tables.
//   NC_LP_SHARED  Safe from any context: immutable after topology wiring
//                 (config structs, link endpoints, port maps), atomics with
//                 documented ordering (Link in_flight), or mutex-protected
//                 state covered by -Wthread-safety (StorageServer's store).
//   NC_LP_FENCED  Mutated only in the global stream / serial fences
//                 (controller state, invariant checkers, metrics pollers);
//                 LP-window code may read the quiescent value but never write.
//
// Leg 1 — static: the macros expand to [[clang::annotate("netcache::lp_*")]]
// under Clang (no-ops elsewhere), so the classification survives into the AST
// and tools/lp_analyze.py can audit it from Clang JSON AST dumps (falling back
// to a lexical scan when clang is unavailable): unclassified Node-subclass
// fields, foreign writes to owned state, unfenced globals, and raw cross-LP
// Schedule calls are all hard findings.
//
// Leg 2 — dynamic: a runtime ownership sanitizer, precise to the DES's real
// happens-before. DES workers publish their executing LP in thread-local
// state (lp::ScopedExecutor); NC_LP_CHECK assertions at the choke points every
// cross-LP touch must pass through — Node handler dispatch, Link transmit and
// delivery accounting, PacketPool shard alloc/free, staged-merge application —
// abort with an LP-attributed diagnostic (node, owning LP, executing LP,
// window, call site) on any violation. Enabled with --lp-checks at runtime;
// compiled out entirely with -DNETCACHE_LP_CHECKS=0 (CMake option
// NETCACHE_LP_CHECKS, default ON — the checks are one branch on a plain bool
// when not enabled, so the default build keeps them available).
//
// See docs/STATIC_ANALYSIS.md for the full model and the decision table of
// which tool catches which bug class.

#ifndef NETCACHE_COMMON_LP_OWNERSHIP_H_
#define NETCACHE_COMMON_LP_OWNERSHIP_H_

#include <cstdint>

// ---- static leg: ownership classification attributes -----------------------

#if defined(__clang__)
#define NC_LP_ANNOTATE(text) [[clang::annotate(text)]]
#else
#define NC_LP_ANNOTATE(text)
#endif

// Field/variable classification (see header comment for semantics). Place on
// the declaration's own line, before the type: the lexical analyzer (and
// human readers) key off that position.
#define NC_LP_OWNED NC_LP_ANNOTATE("netcache::lp_owned")
#define NC_LP_SHARED NC_LP_ANNOTATE("netcache::lp_shared")
#define NC_LP_FENCED NC_LP_ANNOTATE("netcache::lp_fenced")

// ---- dynamic leg: runtime ownership sanitizer ------------------------------

#ifndef NETCACHE_LP_CHECKS
#define NETCACHE_LP_CHECKS 1
#endif

namespace netcache {
namespace lp {

// Process-wide enable switch (--lp-checks). Plain bool by design: it is set
// once before any simulation runs and only read afterwards, and the DES
// worker threads that read it are started after the flag settles.
extern bool g_checks_enabled;

inline bool ChecksEnabled() {
#if NETCACHE_LP_CHECKS
  return g_checks_enabled;
#else
  return false;
#endif
}
void SetChecksEnabled(bool on);

// The LP the calling thread is executing: 0 for the coordinator / global
// stream / any non-DES thread (which may touch anything — serial instants are
// the sanctioned cross-LP mechanism), or the 1-based LP id inside a lookahead
// window. Thread-local, so parallel sweeps with one Simulator per worker do
// not interfere.
uint32_t CurrentLp();

// Diagnostic context: the lookahead window ordinal the coordinator most
// recently opened (approximate across simulators — diagnostics only).
void SetCurrentWindow(uint64_t window);

// Installs `lp` as the calling thread's executing LP for the current scope
// (simulator window workers and serial-instant dispatch). Restores the
// previous value on destruction so nested scopes compose.
class ScopedExecutor {
 public:
  explicit ScopedExecutor(uint32_t lp);
  ~ScopedExecutor();

  ScopedExecutor(const ScopedExecutor&) = delete;
  ScopedExecutor& operator=(const ScopedExecutor&) = delete;

 private:
  uint32_t prev_;
};

// Aborts with the full LP-attributed diagnostic. `what` names the touch
// point ("HandlePacket", "Link::Transmit", ...), `name` the object touched.
[[noreturn]] void ReportViolation(const char* what, const char* name,
                                  uint32_t owner_lp, uint32_t executing_lp,
                                  const char* file, int line);

// Core assertion: an LP-window context (CurrentLp() != 0) may touch only
// state owned by its own LP. The coordinator (CurrentLp() == 0) may touch
// anything — serial instants and barrier-side merges run there.
inline void CheckOwned(const char* what, const char* name, uint32_t owner_lp,
                       const char* file, int line) {
  if (!ChecksEnabled()) {
    return;
  }
  uint32_t executing = CurrentLp();
  if (executing != 0 && executing != owner_lp) {
    ReportViolation(what, name, owner_lp, executing, file, line);
  }
}

// Assertion for coordinator-only code (staged-merge application, partition
// reconfiguration): must never run inside an LP window.
inline void CheckCoordinator(const char* what, const char* file, int line) {
  if (!ChecksEnabled()) {
    return;
  }
  uint32_t executing = CurrentLp();
  if (executing != 0) {
    ReportViolation(what, "<coordinator-only>", 0, executing, file, line);
  }
}

}  // namespace lp
}  // namespace netcache

// Touch-point assertions. NC_LP_CHECK guards access to state owned by LP
// `owner_lp` on behalf of `name`; NC_LP_CHECK_COORDINATOR marks code that
// must only run outside LP windows. Compiled out with -DNETCACHE_LP_CHECKS=0.
#if NETCACHE_LP_CHECKS
#define NC_LP_CHECK(what, name, owner_lp) \
  ::netcache::lp::CheckOwned((what), (name), (owner_lp), __FILE__, __LINE__)
#define NC_LP_CHECK_COORDINATOR(what) \
  ::netcache::lp::CheckCoordinator((what), __FILE__, __LINE__)
#else
#define NC_LP_CHECK(what, name, owner_lp) ((void)0)
#define NC_LP_CHECK_COORDINATOR(what) ((void)0)
#endif

#endif  // NETCACHE_COMMON_LP_OWNERSHIP_H_
