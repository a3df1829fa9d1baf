#include "util/format.hpp"

#include <cstdio>

namespace sntrust {

std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group)
      out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string mu_cell(double mu, bool converged) {
  return fixed(mu, 4) + (converged ? "" : " (capped)");
}

std::string compact(double value, int significant) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", significant, value);
  return buf;
}

std::string to_hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace sntrust
