#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace qmh {

namespace {

// Read by worker threads through warn()/inform(); relaxed is enough
// because the level orders nothing but its own reads and writes.
std::atomic<LogLevel> global_level{LogLevel::Info};

} // namespace

void
setLogLevel(LogLevel level)
{
    global_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return global_level.load(std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace qmh
