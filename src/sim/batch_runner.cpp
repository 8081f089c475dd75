#include "sim/batch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/admissibility.hpp"
#include "core/payload.hpp"
#include "core/step_size.hpp"
#include "core/valid_set.hpp"
#include "sim/batch_grad.hpp"
#include "sim/batch_round.hpp"
#include "sim/megabatch.hpp"
#include "simd/simd.hpp"
#include "trim/trim_batch.hpp"

namespace ftmao {

namespace {

// Advances B replicas of one scenario shape in lockstep through one
// BatchRound (d = 1, so lane r of every row is replica r), keeping what
// the sync scenario owns: the population order, the delivery filter,
// the per-lane gradients, one strategy per sender, witness audits, and
// the metric series. See batch_round.hpp for the determinism contract.
class BatchedSbgRunner {
 public:
  BatchedSbgRunner(std::span<const Scenario> replicas,
                   const RunOptions& options)
      : options_(options) {
    FTMAO_EXPECTS(!replicas.empty());
    const Scenario& first = replicas.front();
    for (const Scenario& s : replicas) {
      s.validate();
      // Shape fields must match across the batch; everything else (seed,
      // functions, states, attack, step, constraint, drops) is per-replica.
      FTMAO_EXPECTS(s.n == first.n);
      FTMAO_EXPECTS(s.f == first.f);
      FTMAO_EXPECTS(s.rounds == first.rounds);
      FTMAO_EXPECTS(s.faulty == first.faulty);
      FTMAO_EXPECTS(s.crashes == first.crashes);
    }
    B_ = replicas.size();
    n_ = first.n;
    f_ = first.f;
    rounds_ = first.rounds;

    // Engine-honest population in the scalar runner's add order: surviving
    // honest agents first (metrics are taken over exactly these), then
    // crashing-but-honest agents.
    const std::vector<std::size_t> honest_idx = first.honest_indices();
    S_ = honest_idx.size();
    honest_ids_.reserve(honest_idx.size() + first.crashes.size());
    for (std::size_t idx : honest_idx)
      honest_ids_.push_back(AgentId{static_cast<std::uint32_t>(idx)});
    for (const auto& [who, when] : first.crashes)
      honest_ids_.push_back(AgentId{static_cast<std::uint32_t>(who)});
    H_ = honest_ids_.size();
    F_ = first.faulty.size();
    FTMAO_EXPECTS(H_ + F_ == n_);
    FTMAO_EXPECTS(n_ <= kMaxSortingNetworkN);

    schedules_.reserve(B_);
    families_.reserve(B_);
    drop_p_.reserve(B_);
    drop_seed_.reserve(B_);
    filter_on_.reserve(B_);
    adversaries_.resize(B_);
    const bool has_crashes = !first.crashes.empty();
    constexpr std::uint32_t kNeverCrashes =
        std::numeric_limits<std::uint32_t>::max();
    crash_round_.assign(n_, kNeverCrashes);
    for (const auto& [who, when] : first.crashes)
      crash_round_[who] = static_cast<std::uint32_t>(when);

    bool any_filter = false;
    for (std::size_t r = 0; r < B_; ++r) {
      const Scenario& s = replicas[r];
      schedules_.push_back(make_schedule(s.step));
      families_.emplace_back(s.honest_functions(), s.f);
      drop_p_.push_back(s.drop_probability);
      drop_seed_.push_back(mix64(s.seed ^ 0xD509F00DULL));
      filter_on_.push_back(s.drop_probability > 0.0 || has_crashes ? 1 : 0);
      any_filter = any_filter || filter_on_.back() != 0;

      // Per-replica adversary objects, seeded exactly as the scalar runner
      // seeds them, so randomized strategies consume identical streams.
      Rng rng(s.seed);
      for (std::size_t idx : s.faulty)
        adversaries_[r].push_back(
            make_adversary(s.attack, rng.substream("adversary", idx)));
    }

    // Every sender of a replica is built from one config, so the first
    // one declares for all.
    round_.init(H_, F_, f_, 1, B_, any_filter,
                [&](std::size_t r, std::size_t j) {
                  return adversaries_[r][0]->recipient_class(honest_ids_[j]);
                });
    const std::size_t stride = round_.stride();

    // Devirtualized gradient descriptors, SoA. A row (= one agent across
    // all replicas) takes the SIMD fast path only if every replica's cost
    // exposes the SAME kernel shape (clamp / tanh / smooth-abs /
    // softplus-diff); mixed rows keep the virtual per-replica
    // derivative() calls. finish_row gives transcendental padding lanes
    // neutral widths (their shapes divide by the width parameter).
    fns_.resize(H_ * stride);
    grad_.init(H_, stride);
    for (std::size_t j = 0; j < H_; ++j) {
      const std::size_t idx = honest_ids_[j].value;
      for (std::size_t r = 0; r < B_; ++r) {
        const Scenario& s = replicas[r];
        const std::size_t l = j * stride + r;
        fns_[l] = s.functions[idx].get();
        grad_.set(j, l, r == 0, fns_[l]->batch_gradient_kernel());
        double x0 = s.initial_states[idx];
        if (s.constraint) x0 = s.constraint->project(x0);
        round_.x(j)[r] = x0;
      }
      grad_.finish_row(j, B_);
    }
    for (std::size_t r = 0; r < B_; ++r) {
      const Scenario& s = replicas[r];
      if (s.constraint) round_.bound(r, s.constraint->lo(), s.constraint->hi());
      round_.default_payload(r, s.default_payload.state,
                             s.default_payload.gradient);
    }
    dmask_.assign(stride, 0.0);

    FTMAO_EXPECTS(options_.record_series || !options_.record_trace);
    metrics_.resize(B_);
    for (std::size_t r = 0; r < B_; ++r) {
      metrics_[r].optima = families_[r].optima_set();
      if (options_.record_trace) {
        metrics_[r].trace.emplace();
        metrics_[r].trace->honest_ids = honest_idx;
      }
    }
  }

  std::vector<RunMetrics> run() {
    engine_stats_record(B_, B_, round_.stride());
    if (options_.record_series) {
      for (std::size_t r = 0; r < B_; ++r) {
        record(r);
        metrics_[r].max_projection_error.push(0.0);
      }
    }

    for (std::size_t t = 1; t <= rounds_; ++t) {
      const bool audit = options_.audit_witnesses &&
                         t <= options_.audit_max_rounds &&
                         (t - 1) % options_.audit_every == 0;
      const Round round{static_cast<std::uint32_t>(t)};

      round_.broadcast();
      gradients();
      round_.select();
      round_.collect([&](std::size_t r, std::size_t b, std::size_t j,
                         std::span<const HonestSummary> summaries) {
        return adversaries_[r][b]->summary_payload(summaries[0], round,
                                                   honest_ids_[j]);
      });
      for (std::size_t r = 0; r < B_; ++r)
        round_.step_size(r, schedules_[r]->at(t - 1));
      round_.step([&](std::size_t j, double* dx, double* dg) {
        assemble_honest(j, round, dx, dg);
      });
      finish_round(audit, options_.record_series || t == rounds_);
    }

    for (std::size_t r = 0; r < B_; ++r) {
      metrics_[r].final_states.reserve(S_);
      for (std::size_t j = 0; j < S_; ++j)
        metrics_[r].final_states.push_back(round_.x(j)[r]);
    }
    return std::move(metrics_);
  }

 private:
  // Mirrors the delivery filter the scalar runner installs (crash
  // silencing + seeded link drops) for an honest sender. Byzantine
  // messages are never filtered: drops exempt them and Scenario::validate
  // keeps crashes off the faulty set.
  bool deliverable(std::uint32_t from, std::uint32_t to, std::uint32_t t,
                   std::size_t r) const {
    if (!filter_on_[r]) return true;
    if (t >= crash_round_[from]) return false;
    const double p = drop_p_[r];
    if (p <= 0.0) return true;
    std::uint64_t h = mix64(drop_seed_[r] ^ from);
    h = mix64(h ^ to);
    h = mix64(h ^ t);
    return static_cast<double>(h >> 11) * 0x1.0p-53 >= p;
  }

  // Step 1's gradients. Rows whose costs all expose the same closed-form
  // descriptor shape (clamp or one of the transcendental kinds) evaluate
  // h'(x) through the SIMD gradient kernel — one indirect call per row
  // instead of one virtual call per lane; derivative() is pure, so the
  // reordering is unobservable and every kernel is pinned bitwise to
  // derivative() by the BatchGradientKernel contract.
  void gradients() {
    for (std::size_t j = 0; j < H_; ++j) {
      const double* x = round_.x(j);
      double* g = round_.bg(j);
      if (grad_.fast(j)) {
        grad_.run(round_.kernels(), j, x, g);
      } else {
        const ScalarFunction* const* fns = fns_.data() + j * round_.stride();
        for (std::size_t r = 0; r < B_; ++r) g[r] = fns[r]->derivative(x[r]);
      }
    }
  }

  // The honest rows of recipient j's multisets under the delivery
  // filter: its own tuple, then every other engine-honest sender's,
  // undelivered ones replaced by the default payload, as the scalar
  // agent substitutes them. Order is irrelevant to Trim.
  void assemble_honest(std::size_t j, Round t, double* dx, double* dg) {
    const std::size_t stride = round_.stride();
    const AgentId rid = honest_ids_[j];
    std::memcpy(dx, round_.bx(j), stride * sizeof(double));
    std::memcpy(dg, round_.bg(j), stride * sizeof(double));
    std::size_t slot = 1;
    for (std::size_t s = 0; s < H_; ++s) {
      if (s == j) continue;
      // The per-lane drop decision is an integer hash (inherently
      // scalar); the payload-vs-default substitution it gates is a
      // full-row masked lane blend. Padding lanes of dmask_ stay 0 and
      // blend to the benign default row.
      const std::uint32_t sid = honest_ids_[s].value;
      for (std::size_t r = 0; r < B_; ++r)
        dmask_[r] = deliverable(sid, rid.value, t.value, r) ? kAllBits : 0.0;
      round_.kernels().masked_blend(
          dmask_.data(), round_.bx(s), round_.bg(s), round_.default_x(),
          round_.default_g(), dx + slot * stride, dg + slot * stride, stride);
      ++slot;
    }
    FTMAO_ENSURES(slot == H_);
  }

  // Post-round bookkeeping per replica: metric series and the
  // projection-error fold (when `keep`), witness audits — each in the
  // scalar runner's operation order.
  void finish_round(bool audit, bool keep) {
    std::vector<double> pre_states;
    std::vector<double> pre_gradients;
    for (std::size_t r = 0; r < B_; ++r) {
      if (keep) record(r);

      if (audit) {
        pre_states.clear();
        pre_gradients.clear();
        for (std::size_t j = 0; j < S_; ++j) {
          pre_states.push_back(round_.bx(j)[r]);
          pre_gradients.push_back(round_.bg(j)[r]);
        }
        auto absorb = [](WitnessStats& stats, const TrimAuditResult& res) {
          ++stats.checks;
          if (!res.witness_found) ++stats.failures;
          if (!res.exact) ++stats.inexact;
          if (res.witness_found) {
            stats.min_weight_seen =
                std::min(stats.min_weight_seen, res.min_support_weight);
            stats.min_support_seen =
                std::min(stats.min_support_seen, res.support_size);
          }
        };
        RunMetrics& m = metrics_[r];
        for (std::size_t j = 0; j < S_; ++j) {
          absorb(m.state_witness, audit_trim(pre_states, round_.tx(j)[r], f_));
          absorb(m.gradient_witness,
                 audit_trim(pre_gradients, round_.tg(j)[r], f_));
        }
      }
      if (keep) {
        double max_proj = 0.0;
        for (std::size_t j = 0; j < S_; ++j)
          max_proj = std::max(max_proj, std::abs(round_.pe(j)[r]));
        metrics_[r].max_projection_error.push(max_proj);
      }
    }
  }

  void record(std::size_t r) {
    RunMetrics& m = metrics_[r];
    double lo = round_.x(0)[r];
    double hi = lo;
    double dist = families_[r].distance_to_optima(lo);
    std::vector<double> snapshot;
    if (m.trace) snapshot.reserve(S_);
    for (std::size_t j = 0; j < S_; ++j) {
      const double xv = round_.x(j)[r];
      lo = std::min(lo, xv);
      hi = std::max(hi, xv);
      dist = std::max(dist, families_[r].distance_to_optima(xv));
      if (m.trace) snapshot.push_back(xv);
    }
    m.disagreement.push(hi - lo);
    m.max_dist_to_y.push(dist);
    if (m.trace) m.trace->rounds.push_back(std::move(snapshot));
  }

  RunOptions options_;
  std::size_t B_ = 0;       ///< replicas in the batch
  std::size_t n_ = 0;       ///< total agents
  std::size_t f_ = 0;       ///< fault bound
  std::size_t rounds_ = 0;
  std::size_t S_ = 0;       ///< surviving honest agents (metric population)
  std::size_t H_ = 0;       ///< engine-honest agents (surviving + crashing)
  std::size_t F_ = 0;       ///< Byzantine agents
  std::vector<AgentId> honest_ids_;

  BatchRound round_;
  std::vector<const ScalarFunction*> fns_;  ///< H x stride, like the rows
  // Devirtualized gradient descriptors (H x stride, SoA) with per-row
  // kernel kinds; see BatchGradientKernel / BatchGradientPlanes.
  BatchGradientPlanes grad_;

  std::vector<std::unique_ptr<StepSchedule>> schedules_;
  std::vector<ValidFamily> families_;
  std::vector<std::vector<std::unique_ptr<SbgAdversary>>> adversaries_;

  // Delivery-filter tables (crash schedule shared; drops seeded per
  // replica).
  std::vector<std::uint32_t> crash_round_;
  std::vector<double> drop_p_;
  std::vector<std::uint64_t> drop_seed_;
  std::vector<std::uint8_t> filter_on_;
  std::vector<double> dmask_;  ///< per-row delivery mask scratch

  std::vector<RunMetrics> metrics_;
};

}  // namespace

std::vector<RunMetrics> run_sbg_batch(std::span<const Scenario> replicas,
                                      const RunOptions& options) {
  if (replicas.empty()) return {};
  return BatchedSbgRunner(replicas, options).run();
}

}  // namespace ftmao
