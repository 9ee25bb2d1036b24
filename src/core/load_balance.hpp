// Greedy tape load balancing (Figure 3 of the paper).
//
// Splits the objects of a cluster across the tapes of a batch so per-tape
// load (sum of P(O) * size(O)) stays balanced and a request touching the
// cluster can stream from several drives at once. The zig-zag index walk
// reproduces the paper's pseudocode exactly; capacity is additionally
// respected (the paper's batch sizing makes overflow unlikely but our
// balancer must never produce an invalid plan).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"
#include "workload/model.hpp"

namespace tapesim::core {

/// Mutable per-tape state threaded through successive balance calls.
struct TapeLoadState {
  TapeId tape;
  double load = 0.0;  ///< Accumulated P(O) * size(O).
  Bytes used{};       ///< Accumulated bytes (capacity tracking).
};

/// How objects of a cluster are distributed over the selected tapes.
enum class BalancePolicy {
  /// Figure 3's boustrophedon walk over load-sorted tapes (the paper's
  /// algorithm and the default).
  kZigZag,
  /// Plain round-robin in member order, ignoring loads.
  kRoundRobin,
  /// Each object goes to the first tape with byte capacity left.
  kFirstFit,
  /// Each object goes to the currently least-loaded tape (greedy LPT-style
  /// when members are sorted by decreasing load).
  kLeastLoaded,
};

[[nodiscard]] const char* to_string(BalancePolicy p);

struct LoadBalanceParams {
  /// A cluster is spread over roughly ceil(bytes / min_split_chunk) tapes:
  /// splitting finer than this makes the per-tape transfer shorter than the
  /// overheads it is meant to hide. Default 8 GB (~100 s of LTO-3
  /// streaming, the magnitude of one tape switch).
  Bytes min_split_chunk{8ULL * 1000 * 1000 * 1000};
  /// Hard per-tape byte cap (k * C_t). Zero disables capacity checking.
  Bytes tape_capacity_cap{0};
  /// Distribution policy (ablation A2 swaps this).
  BalancePolicy policy = BalancePolicy::kZigZag;
};

/// Result of balancing one cluster: parallel arrays member -> tape, plus
/// any members that fit no tape in the batch (capacity fragmentation) and
/// must spill into the next batch.
struct BalanceAssignment {
  std::vector<ObjectId> objects;
  std::vector<TapeId> tapes;
  std::vector<ObjectId> overflow;
};

/// The paper's heuristic for "assign ndrv a proper value based on info of C
/// and tapes": enough tapes that each receives at least min_split_chunk,
/// clamped to [1, tapes.size()].
[[nodiscard]] std::uint32_t choose_split_width(Bytes cluster_bytes,
                                               std::size_t available_tapes,
                                               const LoadBalanceParams& params);

/// Balances `members` (one cluster) across `tapes`, updating the running
/// loads. Implements Figure 3: members sorted by increasing load, tapes by
/// decreasing workload, zig-zag assignment over the first `ndrv` tapes.
/// If a zig-zag target tape lacks capacity, the least-used tape with room
/// is substituted; objects fitting no tape land in `overflow`, in the
/// policy's member order. When no member fits the least-used tape, every
/// member overflows and no tape changes; that case returns before any tape
/// is sorted.
BalanceAssignment balance_cluster(std::span<const ObjectId> members,
                                  std::span<TapeLoadState> tapes,
                                  const workload::Workload& workload,
                                  const LoadBalanceParams& params);

}  // namespace tapesim::core
