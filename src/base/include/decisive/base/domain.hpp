// Entry-time domain checks for the numbers a reliability or safety model
// takes in: shares (failure-mode distribution, safety-mechanism coverage)
// and non-negative amounts (FIT, safety-mechanism cost). One rule per kind
// of number; each check throws the caller's error type, so the core models
// raise AnalysisError and the SSAM model ModelError from the same test.
#pragma once

#include <cmath>
#include <string>
#include <string_view>

#include "decisive/base/strings.hpp"

namespace decisive {

/// Throws `E` unless `value` is a share in [0, 1]. NaN fails: the test asks
/// "inside the range", which no comparison with NaN satisfies. The message
/// reads "<quantity> of '<owner>' must be in [0,1], got <value>"; it is only
/// built on failure, so a passing check allocates nothing.
template <class E>
void check_share(double value, std::string_view quantity, std::string_view owner) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw E(std::string(quantity) + " of '" + std::string(owner) + "' must be in [0,1], got " +
            format_number(value));
  }
}

/// Throws `E` unless `value` is a finite number >= 0 (a FIT, a cost); the
/// message names `quantity` and `owner` as check_share's does.
template <class E>
void check_non_negative(double value, std::string_view quantity, std::string_view owner) {
  if (!(std::isfinite(value) && value >= 0.0)) {
    throw E(std::string(quantity) + " of '" + std::string(owner) +
            "' must be a finite number >= 0, got " + format_number(value));
  }
}

}  // namespace decisive
