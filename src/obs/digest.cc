#include "obs/digest.h"

#include <algorithm>
#include <cstdio>

namespace cfq::obs {

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
