/**
 * @file
 * Runtime invariant checking framework.
 *
 * The MMR's guarantees rest on conservation laws the simulator must
 * never silently violate: credit-based flow control "guarantees flits
 * are never dropped" (§3.1, §4.2) and admission control keeps per-link
 * allocated bandwidth within the round (§4.2).  This module turns
 * those properties into machine-checked statements: an
 * InvariantChecker holds a registry of named predicates and audits
 * them at the end of every simulated cycle (it is a Clocked component,
 * registered after the units it watches so it sees committed state).
 * A violated invariant reports through mmr_panic with full context so
 * a debugger or death test can capture the state.
 *
 * Checking is controlled at two levels: the CMake option
 * MMR_INVARIANTS selects the compile-time default, and
 * invariant::setEnabled() / the MMR_INVARIANTS environment variable
 * (0/1) override it at runtime.  Individual invariants may declare a
 * period so expensive sweeps (e.g. over all 2048 VCs of an 8x256
 * router) run on a stride instead of every cycle.
 */

#ifndef MMR_SIM_INVARIANT_HH
#define MMR_SIM_INVARIANT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/kernel.hh"

namespace mmr
{

namespace invariant
{

/** Whether checkers compiled with default-on support (MMR_INVARIANTS). */
bool compiledDefault();

/**
 * Whether invariant auditing is currently active.  Resolution order:
 * setEnabled() override if called, else the MMR_INVARIANTS environment
 * variable (0/1) if set, else the compile-time default.
 */
bool enabled();

/** Runtime override; wins over the environment and compile default. */
void setEnabled(bool on);

/** Drop any runtime override, returning to env/compile resolution. */
void clearOverride();

} // namespace invariant

/**
 * Report an invariant violation with the standard message shape
 * ("invariant 'name' violated: ...") so death tests and log scrapers
 * can match on the invariant name.  A macro so the panic carries the
 * call site's file/line.
 */
#define mmr_invariant_violated(name, ...) \
    mmr_panic("invariant '", name, "' violated: ", __VA_ARGS__)

/**
 * What a check body that reports instead of panicking returns: empty
 * while the invariant holds, else the violated invariant's name, what
 * was seen and where.  Bodies that may run on a shard worker return
 * one, so the worker records the violation and the coordinator
 * panics after the phase barrier (invariant::enforce).
 */
struct InvariantViolation
{
    const char *check = nullptr; ///< violated invariant; null: held
    const char *file = nullptr;
    int line = 0;
    std::string detail;

    explicit operator bool() const { return check != nullptr; }
};

/** Build the InvariantViolation of check @p name at the call site. */
#define mmr_invariant_failure(name, ...) \
    ::mmr::InvariantViolation{name, __FILE__, __LINE__, \
                              ::mmr::detail::concat(__VA_ARGS__)}

namespace invariant
{

/**
 * Panic on @p v, if set, with the standard message ("invariant
 * '<check>' violated: <where><detail>") at the check's file/line;
 * @p where names the component ("router 7: ") when many share a check.
 */
void enforce(const InvariantViolation &v, const std::string &where = {});

} // namespace invariant

/**
 * Registry of named invariant predicates, audited once per cycle.
 *
 * Check functions receive the current cycle and must either return
 * normally (invariant holds) or panic via mmr_invariant_violated.  A
 * batch entry runs a group of checks with periods of its own (a
 * network's router audit, one shard phase over every router) and
 * reports how many it ran, so checksRun() counts individual checks
 * either way.
 */
// mmr-lint: allow(clocked-invariants) the auditor itself: it runs the
// registered checks and has no invariants of its own to register.
class InvariantChecker : public Clocked
{
  public:
    using CheckFn = std::function<void(Cycle)>;

    /**
     * Register a named invariant.
     *
     * @param name unique identifier, also used in violation messages
     * @param fn predicate; panics on violation
     * @param period audit every @p period cycles (>= 1)
     */
    void add(std::string name, CheckFn fn, unsigned period = 1);

    /**
     * Batch body: runs the checks due at the cycle (all of them when
     * the flag is set, for run() and checkAll()), panics on a
     * violation, and returns how many checks it ran.
     */
    using BatchFn = std::function<std::uint64_t(Cycle, bool all)>;

    /** Register a batch entry; it is called every cycle. */
    void addBatch(std::string name, BatchFn fn);

    /** Number of registered invariants. */
    std::size_t size() const { return entries.size(); }

    bool has(const std::string &name) const;

    /** Registered invariant names, in registration order. */
    std::vector<std::string> names() const;

    /** Run one invariant by name regardless of period/enable state. */
    void run(const std::string &name, Cycle now) const;

    /** Run every invariant regardless of period (still honors the
     * global enable so production runs can switch auditing off). */
    void checkAll(Cycle now) const;

    /** Total individual checks executed so far. */
    std::uint64_t checksRun() const { return ran; }

    // Clocked: audit after state commit, honoring per-entry periods.
    void evaluate(Cycle now) override { (void)now; }
    void advance(Cycle now) override;

  private:
    struct Entry
    {
        std::string name;
        CheckFn fn;     ///< single check; empty for a batch
        BatchFn batch;  ///< batch of checks; empty for a single one
        unsigned period;
    };

    /** Run @p e (every check of a batch when @p all) and count. */
    void runEntry(const Entry &e, Cycle now, bool all) const;

    std::vector<Entry> entries;
    mutable std::uint64_t ran = 0;
};

} // namespace mmr

#endif // MMR_SIM_INVARIANT_HH
