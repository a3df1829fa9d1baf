// Small string-formatting helpers shared by the report printers.
#pragma once

#include <cstdint>
#include <string>

namespace sntrust {

/// 12345678 -> "12,345,678".
std::string with_thousands(std::uint64_t value);

/// Fixed-point decimal with `digits` fractional digits (no locale).
std::string fixed(double value, int digits);

/// Compact scientific-ish rendering used in series output: trims trailing
/// zeros of a %.*g representation.
std::string compact(double value, int significant = 6);

/// A mu (SLEM) cell to 4 decimals, marked " (capped)" when the estimate
/// stopped at its iteration cap before converging (the digits shown are
/// then not all settled).
std::string mu_cell(double mu, bool converged);

/// 0xdeadbeef-style hex rendering (fingerprints, CRCs).
std::string to_hex(std::uint64_t value);

}  // namespace sntrust
