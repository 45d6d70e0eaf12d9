// Top tier: common is fine; an engine is forbidden (facade bypass).
#include "common/base.hh"
#include "circuit/engine.hh"
