// The other half of the declared peer-module include cycle.
#ifndef FIXTURE_SCHED_B_HH
#define FIXTURE_SCHED_B_HH
#include "circuit/a.hh"
#endif
