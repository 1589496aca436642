// Durable key schema of an AgentServer's store.
//
// Every piece of channel and engine state lives under its own key, so
// a commit writes and deletes only the entries its transaction touched
// (DESIGN.md §10.1).  Fixed-width lowercase hex suffixes keep
// Store::Keys(prefix) order aligned with numeric order.
//
//   meta                     varint next message seq, varint incarnation
//   clk/<idx:4>              causal-core image of deployment domain idx
//   qout/<origin:4><seq:16>  unacknowledged QueueOUT entry
//   qin/<seq:16>             QueueIN entry awaiting its reaction
//   hold/<idx:4>/<origin:4><seq:16>  held-back frame of domain idx
//   fwd/<seq:16>             forward parked in the router's DRR stage
//   agent/<local id>         agent state image (decimal id)
//   epoch/current            control-plane epoch record (control/epoch.h)
//
// dlq/ records belong to flow/dead_letter.h.  The AgentServer and the
// reconfiguration coordinator both read and write this schema; neither
// spells a key any other way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "common/status.h"

namespace cmom::mom {

inline constexpr std::string_view kMetaKey = "meta";
inline constexpr std::string_view kClockKeyPrefix = "clk/";
inline constexpr std::string_view kQueueOutKeyPrefix = "qout/";
inline constexpr std::string_view kQueueInKeyPrefix = "qin/";
inline constexpr std::string_view kHoldKeyPrefix = "hold/";
inline constexpr std::string_view kFwdKeyPrefix = "fwd/";
inline constexpr std::string_view kAgentKeyPrefix = "agent/";
// The control plane owns the record format (varint epoch, then the
// config text); the server reads only the leading varint.
inline constexpr std::string_view kEpochCurrentKey = "epoch/current";

// Every prefix under which a message in transit lives.  A store holding
// no key under any of them is drained: nothing stamped under the
// current epoch's coordinates is left to replay.
inline constexpr std::string_view kQueuePrefixes[] = {
    kQueueOutKeyPrefix, kQueueInKeyPrefix, kHoldKeyPrefix, kFwdKeyPrefix};

[[nodiscard]] std::string ClockKey(std::size_t deployment_index);
[[nodiscard]] std::string OutKey(MessageId id);
[[nodiscard]] std::string InKey(std::uint64_t seq);
[[nodiscard]] std::string FwdKey(std::uint64_t seq);
[[nodiscard]] std::string HoldKey(std::size_t deployment_index, MessageId id);
[[nodiscard]] std::string AgentKey(std::uint32_t local_id);

// Parses the hex digits after `prefix` in `key`; DataLoss when they are
// missing or not lowercase hex.
[[nodiscard]] Result<std::uint64_t> ParseHexSuffix(std::string_view key,
                                                   std::string_view prefix);

}  // namespace cmom::mom
