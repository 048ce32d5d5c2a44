// Umbrella header: the debruijn-routing production API.
//
// Fine-grained headers remain the recommended include style; this exists
// for quick experiments and the examples. The differential oracles and
// ablation engines under oracle/ are not part of it: include them by name.
#pragma once

// Foundations.
#include "common/ascii_plot.hpp"   // IWYU pragma: export
#include "common/contract.hpp"     // IWYU pragma: export
#include "common/rng.hpp"          // IWYU pragma: export
#include "common/table.hpp"        // IWYU pragma: export

// String machinery (Morris-Pratt, suffix automaton).
#include "strings/failure.hpp"           // IWYU pragma: export
#include "strings/matching.hpp"          // IWYU pragma: export
#include "strings/suffix_automaton.hpp"  // IWYU pragma: export

// De Bruijn (and sibling) graphs.
#include "debruijn/bfs.hpp"               // IWYU pragma: export
#include "debruijn/dot.hpp"               // IWYU pragma: export
#include "debruijn/embedding.hpp"         // IWYU pragma: export
#include "debruijn/generalized.hpp"       // IWYU pragma: export
#include "debruijn/graph.hpp"             // IWYU pragma: export
#include "debruijn/kautz.hpp"             // IWYU pragma: export
#include "debruijn/kautz_routing.hpp"     // IWYU pragma: export
#include "debruijn/sequence.hpp"          // IWYU pragma: export
#include "debruijn/shuffle_exchange.hpp"  // IWYU pragma: export
#include "debruijn/word.hpp"              // IWYU pragma: export

// The paper's contribution: distances and routing.
#include "core/average_distance.hpp"   // IWYU pragma: export
#include "core/bfs_router.hpp"         // IWYU pragma: export
#include "core/distance.hpp"           // IWYU pragma: export
#include "core/hop_by_hop.hpp"         // IWYU pragma: export
#include "core/path.hpp"               // IWYU pragma: export
#include "core/path_builder.hpp"       // IWYU pragma: export
#include "core/route_engine.hpp"       // IWYU pragma: export
#include "core/routers.hpp"            // IWYU pragma: export

// The network: messages, simulators, protocols.
#include "net/adaptive.hpp"        // IWYU pragma: export
#include "net/broadcast.hpp"       // IWYU pragma: export
#include "net/fault.hpp"           // IWYU pragma: export
#include "net/load_stats.hpp"      // IWYU pragma: export
#include "net/message.hpp"         // IWYU pragma: export
#include "net/reliable.hpp"        // IWYU pragma: export
#include "net/simulator.hpp"       // IWYU pragma: export
#include "net/sort_emulation.hpp"  // IWYU pragma: export
#include "net/synchronous.hpp"     // IWYU pragma: export
#include "net/traffic.hpp"         // IWYU pragma: export
