#include "sim/batch_vector_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "sim/batch_grad.hpp"
#include "sim/batch_round.hpp"
#include "sim/megabatch.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

namespace {

// Advances B replicas of d coordinates through one BatchRound, keeping
// what the vector scenario owns: per-coordinate costs, bounds, defaults
// and initial states, one strategy per replica, and the failure-free
// optimum the metrics measure against.
class BatchedVectorSbgRunner {
 public:
  BatchedVectorSbgRunner(std::span<const VectorScenario> replicas,
                         bool record_series)
      : replicas_(replicas), record_series_(record_series) {
    FTMAO_EXPECTS(!replicas.empty());
    const VectorScenario& first = replicas.front();
    for (const VectorScenario& s : replicas) {
      s.validate();
      FTMAO_EXPECTS(s.n == first.n);
      FTMAO_EXPECTS(s.f == first.f);
      FTMAO_EXPECTS(s.dim == first.dim);
      FTMAO_EXPECTS(s.rounds == first.rounds);
      FTMAO_EXPECTS(s.byzantine_count == first.byzantine_count);
    }
    d_ = first.dim;
    H_ = first.n - first.byzantine_count;
    rounds_ = first.rounds;
    FTMAO_EXPECTS(first.n <= kMaxSortingNetworkN);
    B_ = replicas.size();
    xv_ = Vec(d_);
    gv_ = Vec(d_);

    for (const VectorScenario& s : replicas) {
      schedules_.push_back(make_schedule(s.step));
      if (first.byzantine_count > 0) {
        Rng rng(s.seed);
        adversaries_.push_back(make_vector_adversary(
            s.attack, d_, rng.substream("vector-adversary", 0)));
      }
    }
    // One strategy object per replica declares for all its senders.
    round_.init(H_, first.byzantine_count, first.f, d_, B_, false,
                [&](std::size_t r, std::size_t j) {
                  return adversaries_[r]->recipient_class(
                      AgentId{static_cast<std::uint32_t>(j)});
                });

    for (std::size_t r = 0; r < B_; ++r) {
      const VectorScenario& s = replicas_[r];
      const VecPayload& def = s.default_payload;
      for (std::size_t k = 0; k < d_; ++k) {
        const std::size_t l = round_.lane(k, r);
        if (!s.constraint.empty())
          round_.bound(l, s.constraint[k].lo(), s.constraint[k].hi());
        // Unset default payloads mean zero vectors (the agent-ctor rule).
        round_.default_payload(l, def.state.dim() == 0 ? 0.0 : def.state[k],
                               def.gradient.dim() == 0 ? 0.0
                                                       : def.gradient[k]);
        // Initial states, projected per coordinate exactly like the
        // agent constructor.
        for (std::size_t j = 0; j < H_; ++j) {
          double v = s.honest_initial[j][k];
          if (!s.constraint.empty()) v = s.constraint[k].project(v);
          round_.x(j)[l] = v;
        }
      }
    }

    // Devirtualized gradient planes: agent row j takes the SIMD kernel
    // path iff every replica's cost j publishes per-coordinate
    // descriptors of one uniform kind (sim/batch_grad.hpp). The padding
    // tail gets neutral widths so transcendental rows stay finite there.
    const std::size_t stride = round_.stride();
    grad_.init(H_, stride);
    std::vector<BatchGradientKernel> ks;
    for (std::size_t j = 0; j < H_; ++j) {
      for (std::size_t r = 0; r < B_; ++r) {
        ks.clear();
        if (!replicas_[r].honest_costs[j]->batch_gradient_kernels(ks) ||
            ks.size() != d_) {
          grad_.devirtualize(j);
          continue;
        }
        for (std::size_t k = 0; k < d_; ++k)
          grad_.set(j, j * stride + round_.lane(k, r), r == 0 && k == 0,
                    ks[k]);
      }
      grad_.finish_row(j, d_ * B_);
    }

    // Failure-free optima: identical cost sets (by object identity; the
    // grid drivers' replicas of one shape share their shape's costs)
    // compute the reference minimizer once and reuse the result bits.
    results_.resize(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      if (r > 0 && replicas_[r].honest_costs == replicas_[r - 1].honest_costs) {
        results_[r].failure_free_optimum =
            results_[r - 1].failure_free_optimum;
        continue;
      }
      std::vector<VectorWeightedSum::Term> terms;
      const double weight = 1.0 / static_cast<double>(H_);
      for (const auto& fn : replicas_[r].honest_costs)
        terms.push_back({weight, fn});
      results_[r].failure_free_optimum =
          VectorWeightedSum(std::move(terms)).a_minimizer();
    }
  }

  std::vector<VectorRunResult> run() {
    engine_stats_record(B_, d_ * B_, round_.stride());
    for (std::size_t t = 1; t <= rounds_; ++t) {
      if (record_series_)
        for (std::size_t r = 0; r < B_; ++r) record(r);
      const Round round{static_cast<std::uint32_t>(t)};
      round_.broadcast();
      gradients();
      round_.select();
      round_.collect([&](std::size_t r, std::size_t, std::size_t j,
                         std::span<const HonestSummary> summaries) {
        return adversaries_[r]->summary_payload(
            summaries, round, AgentId{static_cast<std::uint32_t>(j)});
      });
      for (std::size_t r = 0; r < B_; ++r)
        round_.step_size(r, schedules_[r]->at(t - 1));
      round_.step();
    }
    for (std::size_t r = 0; r < B_; ++r) {
      record(r);
      for (std::size_t j = 0; j < H_; ++j) {
        Vec state(d_);
        for (std::size_t k = 0; k < d_; ++k) state[k] = x(j, k, r);
        results_[r].final_states.push_back(std::move(state));
      }
    }
    return std::move(results_);
  }

 private:
  double x(std::size_t j, std::size_t k, std::size_t r) {
    return round_.x(j)[round_.lane(k, r)];
  }

  // Step 1's gradients, once per agent per round: the scalar path
  // evaluates the same pure gradient in both broadcast() and step(), and
  // one evaluation produces the same bits.
  void gradients() {
    for (std::size_t j = 0; j < H_; ++j) {
      if (grad_.fast(j)) {
        // Closed-form row: one SIMD sweep over all coordinates and
        // replicas at once. Padding lanes compute +0.0 (scale 0).
        grad_.run(round_.kernels(), j, round_.x(j), round_.bg(j));
        continue;
      }
      for (std::size_t r = 0; r < B_; ++r) {
        for (std::size_t k = 0; k < d_; ++k) xv_[k] = x(j, k, r);
        replicas_[r].honest_costs[j]->gradient_into(xv_, gv_);
        for (std::size_t k = 0; k < d_; ++k)
          round_.bg(j)[round_.lane(k, r)] = gv_[k];
      }
    }
  }

  // The reference recorder's exact fold order: per agent, the distance
  // to the failure-free optimum, then the pairwise L-inf diameters. It
  // costs O(H^2 d) per replica, so without record_series_ it runs once,
  // after the last round.
  void record(std::size_t r) {
    double diam = 0.0;
    double dist = 0.0;
    const Vec& opt = results_[r].failure_free_optimum;
    for (std::size_t a = 0; a < H_; ++a) {
      double acc = 0.0;
      for (std::size_t k = 0; k < d_; ++k) {
        const double dk = x(a, k, r) - opt[k];
        acc += dk * dk;
      }
      dist = std::max(dist, std::sqrt(acc));
      for (std::size_t b = a + 1; b < H_; ++b) {
        double best = 0.0;
        for (std::size_t k = 0; k < d_; ++k)
          best = std::max(best, std::abs(x(a, k, r) - x(b, k, r)));
        diam = std::max(diam, best);
      }
    }
    results_[r].disagreement.push(diam);
    results_[r].dist_to_average_optimum.push(dist);
  }

  std::span<const VectorScenario> replicas_;
  bool record_series_ = true;  ///< RunOptions::record_series
  std::size_t d_ = 0, H_ = 0, rounds_ = 0, B_ = 0;

  BatchRound round_;
  BatchGradientPlanes grad_;
  std::vector<std::unique_ptr<StepSchedule>> schedules_;
  std::vector<std::unique_ptr<VectorAdversary>> adversaries_;
  std::vector<VectorRunResult> results_;
  Vec xv_, gv_;
};

}  // namespace

std::vector<VectorRunResult> run_vector_sbg_batch(
    std::span<const VectorScenario> replicas, const RunOptions& options) {
  if (replicas.empty()) return {};
  BatchedVectorSbgRunner runner(replicas, options.record_series);
  return runner.run();
}

}  // namespace ftmao
