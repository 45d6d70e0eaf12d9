#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace qmh {

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

} // namespace qmh
