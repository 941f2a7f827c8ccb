// Forwarding header: RecountState and RecountExpectedCandidates live in core/delta_miner.h.
#include "core/delta_miner.h"
