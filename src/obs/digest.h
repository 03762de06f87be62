// Stable result digests: FNV-1a 64 over canonically-ordered rows.
//
// A digest is the serving layer's cheap answer-identity check: two runs
// of the same query — on different counter backends, thread counts,
// SIMD kernels, builds, or machines — must produce the same digest, or
// one of them is wrong. The definition is deliberately simple enough to
// recompute anywhere:
//
//   digest = FNV-1a-64 over the result rows sorted lexicographically
//            (byte order), each row followed by one '\n'
//
// Sorting first makes the digest independent of enumeration order,
// which legitimately differs between strategies and between pair- and
// cross-product-shaped answers; the trailing '\n' per row keeps row
// boundaries unambiguous ("ab"+"c" != "a"+"bc"). An empty result
// digests to the FNV-1a offset basis.
//
// Digests render as 16 lowercase hex digits (DigestHex) everywhere:
// wire responses, audit logs, EXPLAIN ANALYZE, and cfq_replay's
// --verify-digests comparison.
//
// DigestRows is the reference. The daemon, cfq_mine and EXPLAIN ANALYZE
// compute the same value from per-side ranks, without sorting row
// strings (AnswerDigest, core/answer_rows.h).

#ifndef CFQ_OBS_DIGEST_H_
#define CFQ_OBS_DIGEST_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cfq::obs {

// Incremental FNV-1a 64-bit hasher (offset basis 0xcbf29ce484222325,
// prime 0x100000001b3).
class Fnv1a {
 public:
  void Update(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    uint64_t state = state_;
    for (size_t i = 0; i < size; ++i) {
      state ^= static_cast<uint64_t>(bytes[i]);
      state *= 0x100000001b3ULL;
    }
    state_ = state;
  }
  void Update(std::string_view text) { Update(text.data(), text.size()); }
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

// The canonical result digest: rows are copied, sorted, and hashed with
// a '\n' terminator each. `rows` itself is untouched.
uint64_t DigestRows(const std::vector<std::string>& rows);
// The same digest over views of the rows (the vector is sorted in place).
uint64_t DigestRowViews(std::vector<std::string_view> rows);

// 16 lowercase hex digits, zero padded ("00f3a9..."): the one rendering
// used on every surface so digests compare as strings.
std::string DigestHex(uint64_t digest);

// DigestHex(DigestRows(rows)) — the common case in one call.
std::string RowsDigestHex(const std::vector<std::string>& rows);

}  // namespace cfq::obs

#endif  // CFQ_OBS_DIGEST_H_
