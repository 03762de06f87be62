// Answer rows: the one place an answer pair is spelled as a protocol
// row, "s_items;t_items;s_support;t_support" with item ids joined by
// single spaces, and the one place an answer is digested. The serving
// layer's RenderAnswer encodes rows from these pieces; DigestCfqResult
// (core/analyze.h) is AnswerDigest over the whole answer.

#ifndef CFQ_CORE_ANSWER_ROWS_H_
#define CFQ_CORE_ANSWER_ROWS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.h"

namespace cfq {

// The first `max_rows` rows of an answer: row r is the pair
// (r / |T|, r % |T|) of a cross product, else pairs[r].
class AnswerRows {
 public:
  AnswerRows(const CfqResult& result, uint64_t max_rows);

  uint64_t total() const { return total_; }  // Pre-cap pair count.
  uint64_t size() const { return size_; }
  std::pair<uint32_t, uint32_t> operator[](uint64_t r) const {
    if (result_.cross_product) {
      const uint64_t cols = result_.t_sets.size();
      return {static_cast<uint32_t>(r / cols), static_cast<uint32_t>(r % cols)};
    }
    return result_.pairs[r];
  }

 private:
  const CfqResult& result_;
  const uint64_t total_;
  const uint64_t size_;
};

// One side's row fragments: `head` is the item text plus its ';', and
// `support` the decimal support. Each is rendered the first time a row
// needs it, so a set is formatted once per answer however many rows it
// appears in, and never if it appears in none.
//
// Every byte of a head is a digit, a space or the final ';', all below
// ';' (0x3B) except the ';' itself, and none is escaped by JSON. So a
// row is encoded as a JSON string by quoting it, with no escape pass,
// and two rows compare in byte order exactly as their (S head, T head)
// do: heads that differ first differ at or before their ';', where both
// rows still agree with them. A side never lists the same itemset
// twice, so equal heads mean the same pair, i.e. the same row.
class SideFragments {
 public:
  explicit SideFragments(const std::vector<FrequentSet>& sets);

  const std::string& head(uint32_t k) {
    Render(k);
    return heads_[k];
  }
  const std::string& support(uint32_t k) {
    Render(k);
    return supports_[k];
  }

  // Ranks the rendered sets by the byte order of their heads, once
  // every row's sets are rendered: rank(k) of set k, set_of_rank(r).
  void Rank();
  uint32_t num_ranked() const { return static_cast<uint32_t>(by_rank_.size()); }
  uint32_t rank(uint32_t k) const { return rank_[k]; }
  uint32_t set_of_rank(uint32_t r) const { return by_rank_[r]; }

 private:
  static constexpr uint32_t kUnrendered = ~uint32_t{0};

  void Render(uint32_t k) {
    if (rank_[k] == kUnrendered) RenderNew(k);
  }
  void RenderNew(uint32_t k);

  const std::vector<FrequentSet>& sets_;
  std::vector<std::string> heads_;
  std::vector<std::string> supports_;
  std::vector<uint32_t> rank_;     // kUnrendered until rendered.
  std::vector<uint32_t> by_rank_;  // Rendered sets; by rank after Rank().
};

// The canonical digest (obs/digest.h: FNV-1a over the rows in byte
// order, '\n' after each) of `rows`, whose sets must all be rendered in
// `s_side` and `t_side`. By the byte invariant above the row order is
// the order of (S rank, T rank), so the rows are put in that order by
// two counting sorts and hashed from their fragments.
uint64_t RankedDigest(const AnswerRows& rows, SideFragments* s_side,
                      SideFragments* t_side);

// The digest of the first `max_rows` rows of `result` (UINT64_MAX for
// the whole answer), from per-side ranks: no row string is built or
// sorted.
uint64_t AnswerDigest(const CfqResult& result, uint64_t max_rows);

}  // namespace cfq

#endif  // CFQ_CORE_ANSWER_ROWS_H_
