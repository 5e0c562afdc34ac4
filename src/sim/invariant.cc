#include "sim/invariant.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>

namespace mmr
{

namespace invariant
{

namespace
{

/** Runtime override set through setEnabled(); empty = not overridden. */
std::optional<bool> runtimeOverride;

std::optional<bool>
envSetting()
{
    // Read the environment once per process: enabled() sits on the
    // every-cycle audit path, and getenv() is a linear scan of the
    // environment block.  Changing MMR_INVARIANTS after startup was
    // never supported — runtime toggling goes through setEnabled().
    static const std::optional<bool> cached = [] {
        const char *v = std::getenv("MMR_INVARIANTS");
        if (v == nullptr || *v == '\0')
            return std::optional<bool>{};
        return std::optional<bool>(
            !(v[0] == '0' || v[0] == 'n' || v[0] == 'N' ||
              v[0] == 'f' || v[0] == 'F'));
    }();
    return cached;
}

} // namespace

bool
compiledDefault()
{
#ifdef MMR_INVARIANTS_DEFAULT
    return MMR_INVARIANTS_DEFAULT != 0;
#else
    return true;
#endif
}

bool
enabled()
{
    if (runtimeOverride.has_value())
        return *runtimeOverride;
    if (const auto env = envSetting(); env.has_value())
        return *env;
    return compiledDefault();
}

void
setEnabled(bool on)
{
    runtimeOverride = on;
}

void
clearOverride()
{
    runtimeOverride.reset();
}

void
enforce(const InvariantViolation &v, const std::string &where)
{
    if (v)
        detail::panicImpl(v.file, v.line,
                          detail::concat("invariant '", v.check,
                                         "' violated: ", where,
                                         v.detail));
}

} // namespace invariant

void
InvariantChecker::add(std::string name, CheckFn fn, unsigned period)
{
    mmr_assert(fn != nullptr, "invariant '", name, "' has no predicate");
    mmr_assert(period > 0, "invariant '", name, "' needs period >= 1");
    mmr_assert(!has(name), "invariant '", name, "' registered twice");
    entries.push_back(Entry{std::move(name), std::move(fn), nullptr,
                            period});
}

void
InvariantChecker::addBatch(std::string name, BatchFn fn)
{
    mmr_assert(fn != nullptr, "invariant '", name, "' has no predicate");
    mmr_assert(!has(name), "invariant '", name, "' registered twice");
    entries.push_back(Entry{std::move(name), nullptr, std::move(fn), 1});
}

void
InvariantChecker::runEntry(const Entry &e, Cycle now, bool all) const
{
    if (e.batch) {
        ran += e.batch(now, all);
        return;
    }
    e.fn(now);
    ++ran;
}

bool
InvariantChecker::has(const std::string &name) const
{
    return std::any_of(entries.begin(), entries.end(),
                       [&](const Entry &e) { return e.name == name; });
}

std::vector<std::string>
InvariantChecker::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const Entry &e : entries)
        out.push_back(e.name);
    return out;
}

void
InvariantChecker::run(const std::string &name, Cycle now) const
{
    for (const Entry &e : entries) {
        if (e.name == name) {
            runEntry(e, now, true);
            return;
        }
    }
    mmr_panic("no invariant named '", name, "' is registered");
}

void
InvariantChecker::checkAll(Cycle now) const
{
    if (!invariant::enabled())
        return;
    for (const Entry &e : entries)
        runEntry(e, now, true);
}

void
InvariantChecker::advance(Cycle now)
{
    if (!invariant::enabled())
        return;
    for (const Entry &e : entries) {
        if (e.period == 1 || now % e.period == 0)
            runEntry(e, now, false);
    }
}

} // namespace mmr
