#include "sim/batch_round.hpp"

#include <limits>

namespace ftmao {

void BatchRound::init(std::size_t honest, std::size_t byzantine,
                      std::size_t f, std::size_t dim, std::size_t replicas,
                      bool filtered, const Declare& declare) {
  H_ = honest;
  F_ = byzantine;
  f_ = f;
  d_ = dim;
  B_ = replicas;
  filtered_ = filtered;
  const std::size_t L = d_ * B_;
  kernels_ = &simd_kernels_for_lanes(L);
  const std::size_t w = kernels_->width;
  stride_ = (L + w - 1) / w * w;

  for (auto* row : {&x_, &bx_, &bg_, &pe_})
    row->assign(H_ * stride_, 0.0);
  for (auto* row : {&clo_, &chi_, &pemask_, &defx_, &defg_, &lam_})
    row->assign(stride_, 0.0);
  // Real lanes clamp against (-inf, +inf), a bitwise identity on the
  // stepped value, with mask 0 for the literal 0.0 projection error the
  // reference engines record; padding lanes clamp to [0, 0].
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill_n(clo_.begin(), L, -kInf);
  std::fill_n(chi_.begin(), L, kInf);

  // Recipient classes from the strategies' declarations; without
  // senders every recipient trims the same multiset.
  std::vector<RecipientClass> declared(B_ * H_, 0);
  if (F_ > 0) {
    for (std::size_t r = 0; r < B_; ++r)
      for (std::size_t j = 0; j < H_; ++j)
        declared[r * H_ + j] = declare(r, j);
  }
  partition_ = partition_recipients(declared, B_, H_);

  // Trim by selection: the honest order statistics the trims read are
  // selected once per round (once per recipient under a filter) and each
  // class's Byzantine rows are merged into them: one payload where every
  // replica declares classes, else the F rows a per-message replica sent
  // the recipient.
  rows_ = partition_.any_per_message ? F_ : std::min<std::size_t>(F_, 1);
  const RankSet ranks = merge_trim_ranks(H_, F_, f_, rows_);
  RankSet selected = filtered_ ? 0 : ranks;
  if (F_ > 0) {
    selected |= (RankSet{1} << 0) | (RankSet{1} << (H_ / 2)) |
                (RankSet{1} << (H_ - 1));
    mean_.assign(stride_, 0.0);
  }
  if (selected != 0) {
    select_net_ = selection_network(H_, selected);
    sx_.assign(H_ * stride_, 0.0);
    sg_.assign(H_ * stride_, 0.0);
  }
  summaries_.resize(d_);
  if (filtered_) {
    recipient_net_ = selection_network(H_, ranks);
    dx_.assign(H_ * stride_, 0.0);
    dg_.assign(H_ * stride_, 0.0);
  }
  const std::size_t units = filtered_ ? H_ : partition_.classes;
  ctx_.assign(units * stride_, 0.0);
  ctg_.assign(units * stride_, 0.0);
  const std::size_t payload_rows = partition_.classes * rows_;
  bpx_.assign(payload_rows * stride_, 0.0);
  bpg_.assign(payload_rows * stride_, 0.0);
  bpresent_.assign(payload_rows * stride_, 0.0);
  vx_.assign(rows_ * stride_, 0.0);
  vg_.assign(rows_ * stride_, 0.0);
}

}  // namespace ftmao
