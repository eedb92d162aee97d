// Fundamental aliases and constants shared across the NFP codebase.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nfp {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

inline constexpr std::size_t kCacheLineSize = 64;

// a - b clamped at zero: a counter read against a baseline it may have
// restarted below.
constexpr u64 sat_sub(u64 a, u64 b) noexcept { return a >= b ? a - b : 0; }

// Simulated time is kept in nanoseconds throughout the framework.
using SimTime = u64;

inline constexpr SimTime kNsPerUs = 1'000;
inline constexpr SimTime kNsPerMs = 1'000'000;
inline constexpr SimTime kNsPerSec = 1'000'000'000;

}  // namespace nfp
