#include "common/lp_ownership.h"

#include "common/logging.h"

namespace netcache {
namespace lp {

bool g_checks_enabled = false;

namespace {
// TLS executing-LP id; 0 = coordinator / non-DES thread. File-local with
// accessor functions so instrumented headers don't pull the TLS definition
// into every TU.
thread_local uint32_t tls_current_lp = 0;
// Window ordinal for diagnostics. Plain (not atomic): written by the
// coordinator between windows, read by workers only when they are already
// aborting — an approximate value is acceptable in a crash report.
uint64_t g_current_window = 0;
}  // namespace

void SetChecksEnabled(bool on) { g_checks_enabled = on; }

uint32_t CurrentLp() { return tls_current_lp; }

void SetCurrentWindow(uint64_t window) { g_current_window = window; }

ScopedExecutor::ScopedExecutor(uint32_t lp) : prev_(tls_current_lp) {
  tls_current_lp = lp;
}

ScopedExecutor::~ScopedExecutor() { tls_current_lp = prev_; }

void ReportViolation(const char* what, const char* name, uint32_t owner_lp,
                     uint32_t executing_lp, const char* file, int line) {
  // NC_LOG(FATAL) aborts after streaming the message, which is exactly the
  // sanitizer contract: loud, attributed, unrecoverable.
  NC_LOG(FATAL) << "LP-ownership violation at " << what << ": object '" << name
                << "' is owned by LP " << owner_lp
                << " but was touched from LP " << executing_lp
                << " (lookahead window " << g_current_window << ", call site "
                << file << ":" << line
                << "); cross-LP effects must route through ScheduleFor/"
                   "ScheduleGlobal or the staged merge";
  __builtin_unreachable();
}

}  // namespace lp
}  // namespace netcache
