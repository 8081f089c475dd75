#pragma once

// Coordinate-wise SBG for vector arguments — a HEURISTIC for the paper's
// open problem (Section 7, "Vector arguments"): apply the scalar Trim to
// each coordinate of the state and gradient multisets independently.
//
// Inherited guarantee: consensus per coordinate (each coordinate runs the
// scalar recursion, so Lemma 3 applies coordinate-wise). NOT inherited:
// optimality — the coordinate-wise valid set is a box that can contain
// points that are no valid optimum at all, and the true union-of-optima
// set Y_k is non-convex for coupled costs (demonstrated in
// vector_valid.hpp and bench E13).

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/interval.hpp"
#include "common/series.hpp"
#include "common/types.hpp"
#include "core/step_size.hpp"
#include "net/batch.hpp"
#include "net/sync.hpp"
#include "vector/vec.hpp"
#include "vector/vector_function.hpp"

namespace ftmao {

struct VecPayload {
  Vec state;
  Vec gradient;
};

struct VectorSbgConfig {
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t dim = 0;
  VecPayload default_payload;  ///< zero vectors of the right dim if empty

  /// Optional per-coordinate box constraint (the Section 6 projection,
  /// coordinate-wise). Either empty (unconstrained) or one interval per
  /// coordinate.
  std::vector<Interval> constraint;

  void validate() const;
};

class VectorSbgAgent final : public SyncNode<VecPayload> {
 public:
  VectorSbgAgent(AgentId id, VectorFunctionPtr cost, Vec initial_state,
                 const StepSchedule& schedule, const VectorSbgConfig& config);

  VecPayload broadcast(Round t) override;
  void step(Round t, std::span<const Received<VecPayload>> inbox) override;

  AgentId id() const { return id_; }
  const Vec& state() const { return state_; }

 private:
  AgentId id_;
  VectorFunctionPtr cost_;
  Vec state_;
  const StepSchedule* schedule_;
  VectorSbgConfig config_;
};

/// Byzantine behaviour for the vector algorithm, the counterpart of
/// SbgAdversary (vector/vector_attacks.hpp holds the catalogue): a
/// strategy implements summary_payload, and the engine asks send_to.
class VectorAdversary : public ByzantineNode<VecPayload> {
 public:
  /// summary_payload of the HonestSummary of each coordinate of the
  /// view, one per coordinate; an empty view gives no summaries. As in
  /// SbgAdversary::send_to, the summaries are computed at the first call
  /// of a round and reused for the round's other recipients.
  std::optional<VecPayload> send_to(AgentId self, AgentId recipient,
                                    const RoundView<VecPayload>& view) final;

  /// As SbgAdversary::recipient_class; only the batch engine asks.
  virtual RecipientClass recipient_class(AgentId /*recipient*/) const {
    return kPerMessage;
  }

  /// The payload `recipient` gets in round `round` when coordinate k of
  /// the round's view has HonestSummary `summaries[k]`, under
  /// SbgAdversary::summary_payload's promise; the batch engine asks it as
  /// the sync one asks that.
  virtual std::optional<VecPayload> summary_payload(
      std::span<const HonestSummary> summaries, Round round,
      AgentId recipient) = 0;

 private:
  std::optional<Round> summarized_;       ///< round of summaries_
  std::vector<HonestSummary> summaries_;  ///< one per coordinate
};

struct VectorRunResult {
  Series disagreement;  ///< L-inf diameter of honest states per round
  std::vector<Vec> final_states;
  Vec failure_free_optimum;  ///< argmin of the honest uniform average
  Series dist_to_average_optimum;  ///< max_j ||x_j - that optimum||
};

/// Runs coordinate-wise SBG with `byzantine_count` faulty agents, all
/// driven by the one `adversary` (non-null when byzantine_count > 0).
/// With `record_series` false each series keeps only its final entry,
/// the same bits as the full run's last (RunOptions::record_series).
VectorRunResult run_vector_sbg(
    const VectorSbgConfig& config,
    const std::vector<VectorFunctionPtr>& honest_costs,
    const std::vector<Vec>& honest_initial, std::size_t byzantine_count,
    VectorAdversary* adversary, const StepSchedule& schedule,
    std::size_t rounds, bool record_series = true);

}  // namespace ftmao
