#pragma once
/// \file hash.hpp
/// FNV-1a 64, the repo's one fingerprint of bytes: ScenarioSpec hashes
/// and the committed registry digest both call it, so the same bytes hash
/// to the same value everywhere.

#include <cstdint>
#include <string>
#include <string_view>

namespace columbia::common {

/// The FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// FNV-1a 64 of `bytes`, continued from `h`. Feeding a string piece by
/// piece gives the hash of the pieces' concatenation.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = kFnv1aBasis);

/// `h` as 16 lowercase hex digits, the wire and digest-file form.
std::string hex64(std::uint64_t h);

}  // namespace columbia::common
