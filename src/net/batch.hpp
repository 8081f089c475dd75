#pragma once

// Batched-replica extensions of the synchronous engine model (net/sync.hpp).
//
// The batch engines (sim/batch_runner, sim/batch_vector_runner) advance B
// independent replicas of one scenario shape in lockstep: honest state
// lives in structure-of-arrays form and the hot reducers run across the
// replica dimension. They never build a RoundView. Byzantine strategies
// are asked summary_payload with the HonestSummary of their replica's
// selected broadcasts (sim/batch_round.hpp), which answers as send_to
// does on the scalar SyncEngine's view, and their per-replica RNG
// streams advance by exactly that engine's call sequence: a strategy
// that declares recipient classes (below) is asked once per (replica,
// class), every other one once per message in the scalar call order.
// The async batch engine (sim/batch_async_runner) asks summary_payload
// too, once per message, with its trigger view's summary.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ftmao {

/// A Byzantine strategy's declaration of which recipients share a payload
/// (SbgAdversary::recipient_class, VectorAdversary::recipient_class). A
/// class id is a promise: every recipient declared in the class gets the
/// same payload in every round, and that payload depends only on the
/// attack config and the round view — not on the sender, RNG draws, or
/// how often the strategy was asked. The batch engines therefore ask once
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

}  // namespace ftmao
