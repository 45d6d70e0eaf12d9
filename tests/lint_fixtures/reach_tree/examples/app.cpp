// The entry point: reaches core/used through its include.
#include "core/used.hh"

int
main()
{
    return fixture::entryCall(1);
}
