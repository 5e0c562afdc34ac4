#include "base/logging.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "base/simclock.hh"

namespace mmr
{

const char *
to_string(LogLevel l)
{
    switch (l) {
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Silent:
        return "silent";
    }
    return "?";
}

namespace
{

std::atomic<unsigned> warn_counter{0};

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("MMR_LOG_LEVEL");
    if (env == nullptr || *env == '\0')
        return LogLevel::Info;
    std::string s;
    for (const char *p = env; *p; ++p)
        s.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (s == "debug")
        return LogLevel::Debug;
    if (s == "info")
        return LogLevel::Info;
    if (s == "warn" || s == "warning")
        return LogLevel::Warn;
    if (s == "silent" || s == "none" || s == "off")
        return LogLevel::Silent;
    std::fprintf(stderr,
                 "warn: unknown MMR_LOG_LEVEL '%s' "
                 "(want debug|info|warn|silent); using info\n",
                 env);
    return LogLevel::Info;
}

/** stderr, prefixed with the severity and — when a simulation kernel
 * is stepping — the current flit cycle. */
void
defaultSink(LogLevel l, const std::string &msg)
{
    if (simclock::active()) {
        std::fprintf(stderr, "[cycle %llu] %s: %s\n",
                     static_cast<unsigned long long>(simclock::now()),
                     to_string(l), msg.c_str());
    } else {
        std::fprintf(stderr, "%s: %s\n", to_string(l), msg.c_str());
    }
}

LogLevel threshold = levelFromEnv();
log::SinkFn sink; ///< empty = defaultSink
/** Atomic: every thread's flight recorder installs it, and parallel
 * sweeps activate one recorder per worker thread. */
std::atomic<log::PanicHookFn> panicHook{nullptr};

void
emit(LogLevel l, const std::string &msg)
{
    if (sink)
        sink(l, msg);
    else
        defaultSink(l, msg);
}

} // namespace

unsigned
warnCount()
{
    return warn_counter.load();
}

namespace log
{

LogLevel
level()
{
    return threshold;
}

void
setLevel(LogLevel l)
{
    threshold = l;
}

bool
enabled(LogLevel l)
{
    return l >= threshold && threshold != LogLevel::Silent;
}

SinkFn
setSink(SinkFn s)
{
    SinkFn prev = std::move(sink);
    sink = std::move(s);
    return prev;
}

PanicHookFn
setPanicHook(PanicHookFn hook)
{
    return panicHook.exchange(hook);
}

} // namespace log

namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Give the flight recorder its last gasp, guarding against a
    // panic raised from inside the hook itself.
    static thread_local bool inHook = false;
    const log::PanicHookFn hook = panicHook.load();
    if (hook != nullptr && !inHook) {
        inHook = true;
        hook(msg.c_str());
        inHook = false;
    }
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    // Thrown (rather than exit(1)) so the condition is testable; main()
    // wrappers in benches/examples convert it to a clean error exit.
    throw std::runtime_error(std::string("fatal: ") + msg + " (" + file +
                             ":" + std::to_string(line) + ")");
}

void
warnImpl(const std::string &msg)
{
    warn_counter.fetch_add(1);
    if (log::enabled(LogLevel::Warn))
        emit(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    if (log::enabled(LogLevel::Info))
        emit(LogLevel::Info, msg);
}

void
debugImpl(const std::string &msg)
{
    if (log::enabled(LogLevel::Debug))
        emit(LogLevel::Debug, msg);
}

} // namespace detail
} // namespace mmr
