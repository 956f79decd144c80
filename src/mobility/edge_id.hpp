// The 2-byte edge id of the fleet-sized per-device edge maps.
//
// A per-device edge map costs one id per device (per step for a trace), so
// the maps that scale with the fleet store 16-bit ids: the Markov model's
// home edges, trace cells and the membership's device -> edge map. Every
// layer that builds such a map rejects more edges than the id can name
// when it is built, not when the first step reads it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace middlefl::mobility {

/// An edge id as the per-device maps store it.
using EdgeId = std::uint16_t;

/// The most edges an EdgeId can name.
inline constexpr std::size_t kMaxEdges = std::size_t{1} << 16;

}  // namespace middlefl::mobility
