// Half of an include cycle between two declared peer modules.
#ifndef FIXTURE_CIRCUIT_A_HH
#define FIXTURE_CIRCUIT_A_HH
#include "sched/b.hh"
#endif
