// SDB_INJECT — the hook macro every fault-injection site compiles through.
//
// A site is a named point in production code where a fault *may* fire:
//
//   if (SDB_INJECT("dfs.read.fail")) throw DfsTransientError(...);
//
// The macro evaluates to a bool: "should the fault fire here, now?". The
// decision belongs to the process-wide FaultPlan (fault/fault_plan.hpp);
// the *effect* — throw, delay, drop an update, write a torn block — belongs
// to the call site, so each layer expresses its own failure modes.
//
// Cost contract:
//   * SDB_FAULT_INJECTION off  -> the macro is the literal constant `false`;
//     the compiler dead-codes the whole fault arm. Zero overhead, proven by
//     bench/bench_chaos_overhead.cpp.
//   * on, no plan installed    -> one relaxed atomic load + null test.
//   * on, plan installed       -> a mutex-guarded site lookup; only paid in
//     chaos runs.
//
// This header is intentionally tiny (no <string>, no plan internals) so hot
// headers can include it without dragging in the framework.
#pragma once

#include <string_view>

namespace sdb::fault {

/// Fast-path dispatcher behind SDB_INJECT. Returns true when the active
/// FaultPlan schedules a fault for `site` on this hit. False when no plan is
/// installed.
bool maybe_inject(std::string_view site);

/// True when a FaultPlan is installed. A hot loop reads it once per chunk
/// of work and skips its SDB_INJECT sites when it is false. With a plan
/// installed the loop still calls SDB_INJECT once per hit, in order, so
/// the plan's hit counts and log are what they would be without the check.
bool plan_installed();

/// --- crash points (process-death injection) ---
///
/// A crash point marks a byte-exact place where a process may die: between
/// the torn half of a write and its completion, between a tmp file and its
/// rename, between a rename and its manifest publish. When the active plan
/// schedules the site, the crash handler runs — by default raise(SIGKILL),
/// so the process dies exactly as `kill -9` would, leaving whatever bytes
/// already reached the filesystem. The kill-recover harness
/// (tests/test_crash_recovery.cpp) fork()s a child, arms a plan naming
/// crash sites, and asserts the restarted pipeline recovers.
///
/// Unit tests that want to observe the torn state in-process install a
/// handler that throws instead (set_crash_handler); production code treats a
/// returning/throwing crash point as "the process died here" and must not
/// attempt cleanup past it.
using CrashHandler = void (*)(std::string_view site);

/// Install a crash handler (nullptr restores the default SIGKILL handler).
/// Returns the previous handler so tests can restore it.
CrashHandler set_crash_handler(CrashHandler handler);

/// Fire-check for a crash point: when the active plan schedules `site`,
/// invoke the crash handler (which normally never returns).
void crash_point(std::string_view site);

/// Invoke the crash handler unconditionally. For sites that must stage the
/// torn state first: decide with SDB_INJECT, write the partial bytes, then
/// call trigger_crash. Aborts if the handler returns — code past a crash is
/// unreachable by contract.
void trigger_crash(std::string_view site);

/// Exception used by sites whose failure mode is "the operation failed
/// transiently" (task throw, lost accumulator update, transient read error).
/// Recovery layers (task retry loops, util/retry.hpp) treat it as retriable.
class InjectedFault {
 public:
  explicit InjectedFault(std::string_view site) : site_(site) {}
  [[nodiscard]] std::string_view site() const { return site_; }
  [[nodiscard]] const char* what() const { return "sdb::fault::InjectedFault"; }

 private:
  std::string_view site_;  // sites are string literals; lifetime is static
};

}  // namespace sdb::fault

#ifdef SDB_FAULT_INJECTION
#define SDB_INJECT(site) (::sdb::fault::maybe_inject(site))
#define SDB_CRASH_POINT(site) (::sdb::fault::crash_point(site))
#else
#define SDB_INJECT(site) (false)
#define SDB_CRASH_POINT(site) ((void)0)
#endif
