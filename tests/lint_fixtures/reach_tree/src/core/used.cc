// Definitions are not uses; moduleHelper's call from entryCall is.
#include "used.hh"
#include "core/stale.hh"

namespace fixture {

int
moduleHelper(int x)
{
    return x + 1;
}

int
entryCall(int x)
{
    // A product, not a declaration of a function returning `x *`.
    const int scaled = x * moduleHelper(x);
    return scaled;
}

int
testOnly(int x)
{
    return x;
}

int
calledNowhere(int x)
{
    return x;
}

int
allowedTestOnly(int x)
{
    return x;
}

} // namespace fixture
