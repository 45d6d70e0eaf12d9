// Fixture: failure modes banned inside the typed-error domain.
// test_lint.cc lints this text twice: labeled as src/api/ (every
// finding fires) and as src/cqla/ (rule off, zero findings).
#include <cstdlib>

int
fixtureTypedErrors(int value)
{
    if (value < 0)
        throw value;                     // line 10
    if (value == 0)
        qmh_panic("zero is invalid");    // line 12
    if (value > 100)
        exit(1);                         // line 14
    if (value > 50)
        std::abort();                    // line 16
    if (value == 7)
        qmh_fatal("seven is invalid");   // line 18
    return value;
}
