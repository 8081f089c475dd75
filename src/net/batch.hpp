#pragma once

// Batched-replica extensions of the synchronous engine model (net/sync.hpp).
//
// The batch engines (sim/batch_runner, sim/batch_vector_runner) advance B
// independent replicas of one scenario shape in lockstep: honest state
// lives in structure-of-arrays form and the hot reducers run across the
// replica dimension. Byzantine strategies see the rounds the scalar
// SyncEngine shows them, with their per-replica RNG streams advanced by
// exactly its call sequence, in one of two ways. A strategy that declares
// recipient classes (below) is asked once per (replica, class), and, in
// a pack the engine trims by selection, through summary_payload with the
// HonestSummary of its own selected broadcasts (sim/broadcast_selection
// .hpp) instead of a view. Every other ask goes through send_to and a
// per-replica RoundView<P> indistinguishable (same sender order, same
// payload values, same round) from the scalar engine's, so rushing,
// adaptive and randomized adversaries behave identically whether the
// replica runs alone or inside a batch; BatchedHonestBroadcasts builds
// such views for the sync engine.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "net/sync.hpp"

namespace ftmao {

/// A Byzantine strategy's declaration of which recipients share a payload
/// (SbgAdversary::recipient_class, VectorAdversary::recipient_class). A
/// class id is a promise: every recipient declared in the class gets the
/// same payload in every round, and that payload depends only on the
/// attack config and the round view — not on the sender, RNG draws, or
/// how often send_to was called. The batch engines therefore ask once
/// per (replica, class), at the class's first recipient in engine order,
/// and reuse the answer for every sender of the replica. The scalar
/// engines never read declarations.
using RecipientClass = std::uint32_t;

/// The declaration that promises nothing: the strategy is asked once per
/// message, in the scalar engine's call order.
inline constexpr RecipientClass kPerMessage = ~RecipientClass{0};

/// Recipients grouped so that, in every replica of a batch, all members
/// of one class receive the same Byzantine payloads. Classes are numbered
/// by their first recipient in engine order.
struct RecipientPartition {
  std::size_t classes = 0;                ///< C
  std::vector<std::uint32_t> class_of;    ///< recipient -> class
  std::vector<std::uint32_t> first;       ///< class -> its first recipient
  std::vector<std::uint8_t> per_message;  ///< replica -> asked per message?
  bool any_per_message = false;           ///< some replica asked so?
  /// replica * C + class -> the class whose payload this replica reuses.
  /// Where it equals the class itself, the replica's strategy is asked at
  /// that class's first recipient (the first recipient of its declared
  /// class). Unused for per-message replicas.
  std::vector<std::uint32_t> source;
};

/// Builds the partition once per engine call. `declared` holds every
/// replica's declaration for every recipient, replica-major (replicas x
/// recipients, recipients in engine order). A replica that declares
/// kPerMessage for any recipient is asked per message throughout, and
/// then every recipient is its own class, since that replica's payloads
/// may differ per recipient. Otherwise two recipients share a class iff
/// every replica declares the same class for both.
RecipientPartition partition_recipients(
    std::span<const RecipientClass> declared, std::size_t replicas,
    std::size_t recipients);

/// One round's honest broadcasts for B replicas, materialized per replica
/// in the scalar engine's array-of-structures order so unmodified
/// ByzantineNode implementations can observe them through RoundView<P>.
/// Buffers are reused across rounds: a T-round run allocates only while
/// the first round warms the per-replica vectors up.
template <typename P>
class BatchedHonestBroadcasts {
 public:
  /// Starts a round: `senders` is the honest population in engine add
  /// order (shared by all replicas — the batch runs one scenario shape).
  /// Invalidates views of previous rounds.
  void begin_round(Round round, std::size_t replicas,
                   std::span<const AgentId> senders) {
    FTMAO_EXPECTS(replicas >= 1);
    round_ = round;
    num_senders_ = senders.size();
    per_replica_.resize(replicas);
    for (auto& view : per_replica_) {
      view.resize(num_senders_);
      for (std::size_t s = 0; s < num_senders_; ++s) view[s].from = senders[s];
    }
  }

  /// Records sender `sender_index` (in begin_round order)'s broadcast for
  /// replica `replica`.
  void set(std::size_t sender_index, std::size_t replica, const P& payload) {
    per_replica_[replica][sender_index].payload = payload;
  }

  /// The scalar-equivalent view of the current round for one replica.
  /// Valid until the next begin_round.
  RoundView<P> view(std::size_t replica) const {
    return RoundView<P>{round_, per_replica_[replica]};
  }

  std::size_t num_senders() const { return num_senders_; }

 private:
  Round round_{0};
  std::size_t num_senders_ = 0;
  std::vector<std::vector<Received<P>>> per_replica_;
};

}  // namespace ftmao
