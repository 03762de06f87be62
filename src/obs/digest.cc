#include "obs/digest.h"

#include <algorithm>
#include <cstdio>

namespace cfq::obs {

void Fnv1a::Update(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t state = state_;
  for (size_t i = 0; i < size; ++i) {
    state ^= static_cast<uint64_t>(bytes[i]);
    state *= 0x100000001b3ULL;
  }
  state_ = state;
}

uint64_t DigestRows(const std::vector<std::string>& rows) {
  return DigestRowViews(
      std::vector<std::string_view>(rows.begin(), rows.end()));
}

uint64_t DigestRowViews(std::vector<std::string_view> rows) {
  std::sort(rows.begin(), rows.end());
  Fnv1a hash;
  for (std::string_view row : rows) {
    hash.Update(row);
    hash.Update("\n", 1);
  }
  return hash.digest();
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string RowsDigestHex(const std::vector<std::string>& rows) {
  return DigestHex(DigestRows(rows));
}

}  // namespace cfq::obs
