// Text serialization of MOM configurations and traffic profiles.
//
// The boot-time configuration (Section 5: servers, domains and hence
// routing are fixed statically) lives in a small line-based format an
// operator can write by hand and `momtool` can validate:
//
//     # an 8-server MOM, Figure 2 of the paper
//     servers = 1 2 3 4 5 6 7 8
//     stamp_mode = updates          # or: full
//     domain 0 = 1 2 3
//     domain 1 = 4 5
//     domain 2 = 7 8
//     domain 3 = 3 5 6 7
//
// `servers = <n>` (a single integer) is shorthand for ids 0..n-1.
// Traffic profiles (for the splitter) are triplets per line:
//
//     # from to messages-per-second
//     0 1 120.5
//     1 0 80
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "domains/config.h"
#include "domains/splitter.h"

namespace cmom::domains {

[[nodiscard]] Result<MomConfig> ParseMomConfig(std::string_view text);
[[nodiscard]] std::string FormatMomConfig(const MomConfig& config);

// Traffic-profile server ids must be below this bound.  The profile is
// a dense (max id + 1)^2 matrix of doubles, so the bound caps it at
// 1024 x 1024 x 8 B = 8 MiB -- and the splitter's all-pairs edge list,
// also O(n^2), at about 0.5M edges.  Without it a one-line profile
// naming id 65535 asks for 32 GiB.
inline constexpr std::size_t kMaxTrafficProfileServers = 1024;

// Refuses an id at or above kMaxTrafficProfileServers (InvalidArgument
// naming the line) before allocating anything sized by the ids.
[[nodiscard]] Result<TrafficProfile> ParseTrafficProfile(
    std::string_view text);
[[nodiscard]] std::string FormatTrafficProfile(const TrafficProfile& traffic);

// File helpers.
[[nodiscard]] Result<MomConfig> LoadMomConfig(const std::string& path);
[[nodiscard]] Status SaveMomConfig(const MomConfig& config,
                                   const std::string& path);
[[nodiscard]] Result<TrafficProfile> LoadTrafficProfile(
    const std::string& path);

}  // namespace cmom::domains
