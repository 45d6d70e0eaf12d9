// Upward dependency: the bottom tier reaching into an engine above it.
#ifndef FIXTURE_COMMON_UPWARD_HH
#define FIXTURE_COMMON_UPWARD_HH
#include "circuit/engine.hh"
#endif
