#include "core/answer_rows.h"

#include <algorithm>

#include "obs/digest.h"

namespace cfq {

AnswerRows::AnswerRows(const CfqResult& result, uint64_t max_rows)
    : result_(result),
      total_(result.cross_product
                 ? static_cast<uint64_t>(result.s_sets.size()) *
                       static_cast<uint64_t>(result.t_sets.size())
                 : result.pairs.size()),
      size_(std::min(max_rows, total_)) {}

SideFragments::SideFragments(const std::vector<FrequentSet>& sets)
    : sets_(sets), heads_(sets.size()), supports_(sets.size()),
      rank_(sets.size(), kUnrendered) {}

void SideFragments::Rank() {
  std::sort(by_rank_.begin(), by_rank_.end(),
            [this](uint32_t a, uint32_t b) { return heads_[a] < heads_[b]; });
  for (uint32_t r = 0; r < by_rank_.size(); ++r) rank_[by_rank_[r]] = r;
}

void SideFragments::RenderNew(uint32_t k) {
  rank_[k] = 0;
  by_rank_.push_back(k);
  std::string& head = heads_[k];
  const Itemset& items = sets_[k].items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) head += ' ';
    head += std::to_string(items[i]);
  }
  head += ';';
  supports_[k] = std::to_string(sets_[k].support);
}

uint64_t RankedDigest(const AnswerRows& rows, SideFragments* s_side,
                      SideFragments* t_side) {
  s_side->Rank();
  t_side->Rank();
  using Ranks = std::pair<uint32_t, uint32_t>;  // (S rank, T rank).
  // Stable counting sort of `in` into `out` by one of the two ranks.
  const auto counting_sort = [](const std::vector<Ranks>& in, uint32_t ranks,
                                uint32_t Ranks::*key, std::vector<Ranks>* out) {
    std::vector<uint64_t> end(static_cast<size_t>(ranks) + 1, 0);
    for (const Ranks& r : in) ++end[r.*key + 1];
    for (size_t k = 1; k < end.size(); ++k) end[k] += end[k - 1];
    for (const Ranks& r : in) (*out)[end[r.*key]++] = r;
  };
  std::vector<Ranks> by_row(rows.size()), by_t(rows.size());
  for (uint64_t r = 0; r < rows.size(); ++r) {
    const auto [i, j] = rows[r];
    by_row[r] = {s_side->rank(i), t_side->rank(j)};
  }
  counting_sort(by_row, t_side->num_ranked(), &Ranks::second, &by_t);
  counting_sort(by_t, s_side->num_ranked(), &Ranks::first, &by_row);
  obs::Fnv1a hash;
  for (const auto& [s_rank, t_rank] : by_row) {
    const uint32_t i = s_side->set_of_rank(s_rank);
    const uint32_t j = t_side->set_of_rank(t_rank);
    hash.Update(s_side->head(i));
    hash.Update(t_side->head(j));
    hash.Update(s_side->support(i));
    hash.Update(";", 1);
    hash.Update(t_side->support(j));
    hash.Update("\n", 1);
  }
  return hash.digest();
}

uint64_t AnswerDigest(const CfqResult& result, uint64_t max_rows) {
  const AnswerRows rows(result, max_rows);
  SideFragments s_side(result.s_sets), t_side(result.t_sets);
  for (uint64_t r = 0; r < rows.size(); ++r) {
    const auto [i, j] = rows[r];
    s_side.head(i);
    t_side.head(j);
  }
  return RankedDigest(rows, &s_side, &t_side);
}

}  // namespace cfq
